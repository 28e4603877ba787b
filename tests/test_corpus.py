import numpy as np
import pytest

from structkpn.corpus import NoiseModel, add_noise, block_wave, synth_image, synth_corpus
from structkpn.fileio import read_pgm


def test_block_wave_period_four():
    w = block_wave(12)
    assert np.array_equal(w, [1, 1, -1, -1] * 3)
    assert set(np.unique(w)) == {-1.0, 1.0}


def test_synth_image_range_and_determinism():
    a = synth_image(64, np.random.default_rng(1))
    b = synth_image(64, np.random.default_rng(1))
    c = synth_image(64, np.random.default_rng(2))
    assert a.shape == (64, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.02 and a.max() <= 0.98


def test_synth_image_has_structure():
    # scenes must not be constant: edges/texture are the training signal
    for i in range(10):
        img = synth_image(96, np.random.default_rng([3, i]))
        assert img.std() > 0.01


def test_synth_image_size_validation():
    with pytest.raises(ValueError):
        synth_image(8, np.random.default_rng(0))


def test_synth_corpus_writes_readable_pgms(tmp_path):
    paths = synth_corpus(tmp_path / "d", 3, size=48, seed=5)
    assert [p.name for p in paths] == ["img_000.pgm", "img_001.pgm", "img_002.pgm"]
    imgs = [read_pgm(p) for p in paths]
    assert all(im.shape == (48, 48) for im in imgs)
    # per-image seeding: regenerating image 1 alone gives the same pixels
    solo = synth_image(48, np.random.default_rng([5, 1]))
    assert np.allclose(imgs[1], solo, atol=1.0 / 65535)
    with pytest.raises(ValueError):
        synth_corpus(tmp_path / "d2", 0)


def test_add_noise_sigma_zero_is_exact_copy():
    img = np.random.default_rng(60).random((16, 16))
    out = add_noise(img, NoiseModel(kind="gaussian", sigma=0.0), np.random.default_rng(0))
    assert np.array_equal(out, img)
    assert out is not img


def test_add_noise_gaussian_seeded_and_clipped():
    img = np.random.default_rng(61).random((32, 32))
    a = add_noise(img, NoiseModel(sigma=0.5), np.random.default_rng(9))
    b = add_noise(img, NoiseModel(sigma=0.5), np.random.default_rng(9))
    c = add_noise(img, NoiseModel(sigma=0.5), np.random.default_rng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert not np.array_equal(a, img)


def test_add_noise_poisson_gaussian():
    img = np.full((64, 64), 0.5)
    nm = NoiseModel(kind="poisson-gaussian", sigma=0.02, poisson_scale=100.0)
    out = add_noise(img, nm, np.random.default_rng(12))
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    # shot noise at 50 expected counts: std ~ sqrt(50)/100 ~ 0.07
    assert 0.03 < out.std() < 0.15
    again = add_noise(img, nm, np.random.default_rng(12))
    assert np.array_equal(out, again)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="salt")
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(kind="poisson-gaussian", poisson_scale=0.0)
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        NoiseModel(sigma=float("nan"))
    with pytest.raises(ValueError, match="poisson_scale must be finite"):
        NoiseModel(kind="poisson-gaussian", poisson_scale=float("inf"))
