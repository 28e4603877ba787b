import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from structkpn import metrics
from structkpn.corpus import synth_image
from structkpn.losses import SsimConstants, window_weights
from structkpn.metrics import psnr, ssim_image, evaluate, EVAL_HEADER
from structkpn.tensor import ssim_from_moments
from structkpn.training import TrainConfig, train
from helpers import direct_ssim


def test_psnr_known_values():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.5)
    assert psnr(a, b) == pytest.approx(10 * math.log10(1 / 0.25))
    # mse 0.01 -> 20 dB
    c = np.full((10, 10), 0.1)
    assert psnr(a, c) == pytest.approx(20.0)


def test_psnr_identical_is_positive_infinity():
    a = np.random.default_rng(70).random((8, 8))
    assert psnr(a, a.copy()) == math.inf


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))


def test_metric_bits_are_pinned():
    # eval's ssim_noisy is pinned bit for bit by the benchmark's reference
    rng = np.random.default_rng(5)
    a = synth_image(64, rng)
    b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
    assert psnr(a, b).hex() == "0x1.420e4e333ba52p+4"
    assert ssim_image(a, b).hex() == "0x1.f835463c66a94p-2"


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
    vals = []
    for m in range(18 - 10):
        for n in range(20 - 10):
            vals.append(direct_ssim(a[m:m + 11, n:n + 11], b[m:m + 11, n:n + 11]))
    assert ssim_image(a, b) == pytest.approx(np.mean(vals), abs=1e-10)


def whole_image_tensordot_moments(a, b):
    """ssim_image's five window moments as one whole-image tensordot each."""
    w2 = window_weights((SsimConstants().window,) * 2)
    wa = sliding_window_view(a, w2.shape)
    wb = sliding_window_view(b, w2.shape)
    axes = ([2, 3], [0, 1])
    return np.stack([np.tensordot(wa, w2, axes=axes), np.tensordot(wb, w2, axes=axes),
                     np.tensordot(wa * wa, w2, axes=axes), np.tensordot(wb * wb, w2, axes=axes),
                     np.tensordot(wa * wb, w2, axes=axes)])


def whole_image_tensordot_ssim(a, b):
    """ssim_image as whole-image tensordot moments: the formula whose bits it keeps."""
    return float(np.mean(ssim_from_moments(*whole_image_tensordot_moments(a, b),
                                           SsimConstants())))


BAND_SHAPES = [(11, 11), (12, 40), (97, 131), (128, 128), (256, 256), (301, 257)]


def noisy_pair(shape):
    rng = np.random.default_rng([73, *shape])
    a = rng.random(shape)
    return a, np.clip(a + rng.normal(0, 0.1, shape), 0, 1)


@pytest.mark.parametrize("band_pixels", [1, metrics._BAND_PIXELS])   # 1: bands of 4 rows
@pytest.mark.parametrize("shape", BAND_SHAPES)
def test_ssim_image_bands_keep_whole_image_bits(shape, band_pixels, monkeypatch):
    monkeypatch.setattr(metrics, "_BAND_PIXELS", band_pixels)
    a, b = noisy_pair(shape)
    assert ssim_image(a, b) == whole_image_tensordot_ssim(a, b)


def test_ssim_image_bands_keep_whole_image_bits_at_one_blas_thread():
    # perfbench records at one BLAS thread, where every window moment must match
    # the whole-image call; the mean alone would hide a last-bit moment change.
    # With more threads OpenBLAS splits each call too, so this runs pinned.
    script = (
        "import numpy as np, test_metrics as t\n"
        "for bp in (1, t.metrics._BAND_PIXELS):\n"
        "    t.metrics._BAND_PIXELS = bp\n"
        "    for shape in t.BAND_SHAPES:\n"
        "        a, b = t.noisy_pair(shape)\n"
        "        got = t.metrics._window_moments(a, b, t.SsimConstants().window)\n"
        "        same = np.array_equal(got, t.whole_image_tensordot_moments(a, b))\n"
        "        same &= t.ssim_image(a, b) == t.whole_image_tensordot_ssim(a, b)\n"
        "        print(bp, shape, same)\n")
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(out) == 2 * len(BAND_SHAPES)
    assert all(line.endswith("True") for line in out), out


def test_ssim_image_footprint_is_bounded():
    a, b = noisy_pair((256, 256))
    tracemalloc.start()
    try:
        ssim_image(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (246^2, 121) window copy alone is 58 MB
    assert peak < 16e6, peak / 1e6


def test_ssim_image_validation():
    with pytest.raises(ValueError):
        ssim_image(np.zeros((8, 8)), np.zeros((8, 8)))     # smaller than the 11x11 window
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


def test_evaluate_of_a_nan_model_reports_nan_not_inf(recwarn):
    ckpt, imgs = tiny_checkpoint(model_kind="kpn")
    ckpt.params["head.b"] = np.full_like(ckpt.params["head.b"], np.nan)
    data = [(f"im{i}", im) for i, im in enumerate(imgs)]
    with np.errstate(invalid="ignore"):
        report = evaluate(ckpt, data, seed=1)
    assert math.isnan(report.mean_psnr_denoised) and math.isnan(report.mean_ssim_denoised)
    assert math.isfinite(report.mean_psnr_noisy)
    assert not [w for w in recwarn if "identical images" in str(w.message)]


def test_evaluate_empty_dataset():
    ckpt, _ = tiny_checkpoint()
    with pytest.raises(ValueError):
        evaluate(ckpt, [])
