import csv
import math

import numpy as np
import pytest

from structkpn.corpus import synth_image
from structkpn.losses import window_weights
from structkpn.metrics import psnr, ssim_image, evaluate, EVAL_HEADER
from structkpn.training import TrainConfig, train
from helpers import direct_ssim


def test_psnr_known_values():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.5)
    assert psnr(a, b) == pytest.approx(10 * math.log10(1 / 0.25))
    assert psnr(a, b, data_range=2.0) == pytest.approx(10 * math.log10(4 / 0.25))
    # mse 0.01 -> 20 dB
    c = np.full((10, 10), 0.1)
    assert psnr(a, c) == pytest.approx(20.0)


def test_psnr_identical_is_positive_infinity():
    a = np.random.default_rng(70).random((8, 8))
    assert psnr(a, a.copy()) == math.inf


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)), data_range=0.0)


def test_ssim_image_self_and_symmetry():
    rng = np.random.default_rng(71)
    a = rng.random((20, 24))
    b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
    assert ssim_image(a, a.copy()) == pytest.approx(1.0, abs=1e-12)
    assert ssim_image(a, b) == ssim_image(b, a)
    assert ssim_image(a, b) < 1.0


def test_ssim_image_matches_naive_window_loop():
    rng = np.random.default_rng(72)
    a = rng.random((18, 20))
    b = np.clip(a + rng.normal(0, 0.15, a.shape), 0, 1)
    for kind in ("uniform", "gaussian"):
        got = ssim_image(a, b, window=11, kind=kind)
        w2 = window_weights((11, 11), kind)
        vals = []
        for m in range(18 - 10):
            for n in range(20 - 10):
                vals.append(direct_ssim(a[m:m + 11, n:n + 11],
                                        b[m:m + 11, n:n + 11], weights=w2))
        assert got == pytest.approx(np.mean(vals), abs=1e-10)


def test_ssim_image_validation():
    with pytest.raises(ValueError):
        ssim_image(np.zeros((8, 8)), np.zeros((8, 8)), window=11)   # too small
    with pytest.raises(ValueError):
        ssim_image(np.zeros((16, 16)), np.zeros((16, 16)), window=4)
    with pytest.raises(ValueError):
        ssim_image(np.zeros((16, 16)), np.zeros((16, 15)))


def tiny_checkpoint(steps=0, **overrides):
    kw = dict(model_kind="plain-cnn", loss_kind="l1", steps=steps, val_interval=0,
              kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2,
              patch_size=32, batch_size=2, lr=1e-3, seed=3)
    kw.update(overrides)
    cfg = TrainConfig(**kw)
    imgs = [synth_image(48, np.random.default_rng([8, i])) for i in range(3)]
    ckpt, _ = train(cfg, imgs)
    return ckpt, imgs


def test_evaluate_report_rows_and_csv(tmp_path):
    ckpt, imgs = tiny_checkpoint()
    data = [(f"im{i}.pgm", im) for i, im in enumerate(imgs)]
    report = evaluate(ckpt, data, seed=4)
    assert [r.file for r in report.rows] == ["im0.pgm", "im1.pgm", "im2.pgm"]
    # an untrained identity baseline scores the noisy image on both sides
    for r in report.rows:
        assert r.psnr_denoised == pytest.approx(r.psnr_noisy)
        assert 10 < r.psnr_noisy < 30
    path = report.to_csv(tmp_path / "eval.csv")
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == EVAL_HEADER
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(report.rows[0].psnr_noisy)


def test_evaluate_deterministic_per_seed():
    ckpt, imgs = tiny_checkpoint()
    data = [(f"im{i}", im) for i, im in enumerate(imgs)]
    a = evaluate(ckpt, data, seed=7)
    b = evaluate(ckpt, data, seed=7)
    c = evaluate(ckpt, data, seed=8)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_evaluate_infinite_psnr_excluded_with_warning():
    # identity model + zero noise: every PSNR is +inf
    ckpt, imgs = tiny_checkpoint(noise_sigma=0.0)
    data = [(f"im{i}", im) for i, im in enumerate(imgs)]
    with pytest.warns(UserWarning, match="excluded"):
        report = evaluate(ckpt, data, seed=1)
    assert all(r.psnr_noisy == math.inf for r in report.rows)
    assert report.mean_psnr_noisy == math.inf
    assert report.mean_ssim_noisy == pytest.approx(1.0)


def test_evaluate_empty_dataset():
    ckpt, _ = tiny_checkpoint()
    with pytest.raises(ValueError):
        evaluate(ckpt, [])
