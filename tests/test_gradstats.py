import numpy as np
import pytest

from structkpn.gradstats import (GradStatsMap, image_gradients, structure_tensor_eigs,
                                 structure_stats, stats_map, region_class_map,
                                 REGION_FLAT, REGION_FINE, REGION_EDGE)


def test_image_gradients_hand_case():
    img = np.array([[0.0, 1.0, 2.0],
                    [3.0, 4.0, 5.0],
                    [6.0, 7.0, 8.0]])
    gx, gy = image_gradients(img)
    # interior: (right - left)/2 = 1, (below - above)/2 = 3
    assert gx[1, 1] == 1.0 and gy[1, 1] == 3.0
    # replicated border: one-sided difference halves
    assert gx[1, 0] == (4.0 - 3.0) / 2
    assert gx[1, 2] == (5.0 - 4.0) / 2
    assert gy[0, 1] == (4.0 - 1.0) / 2
    assert gy[2, 1] == (7.0 - 4.0) / 2


def test_image_gradients_constant_is_zero():
    gx, gy = image_gradients(np.full((7, 5), 0.42))
    assert np.array_equal(gx, np.zeros((7, 5)))
    assert np.array_equal(gy, np.zeros((7, 5)))


def test_image_gradients_size_validation():
    with pytest.raises(ValueError):
        image_gradients(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        image_gradients(np.zeros(9))


def test_eigs_match_lapack_oracle():
    rng = np.random.default_rng(10)
    for _ in range(500):
        rows = int(rng.integers(4, 200))
        g = rng.normal(size=(rows, 2))
        lam1, lam2 = structure_tensor_eigs(g)
        ref = np.linalg.eigvalsh(g.T @ g)[::-1]
        assert abs(lam1 - ref[0]) <= 1e-10
        assert abs(lam2 - ref[1]) <= 1e-10
        assert lam1 >= lam2 >= 0.0


def test_eigs_diagonal_exact():
    g = np.array([[2.0, 0.0], [0.0, 1.0], [2.0, 0.0]])   # sxx=8, syy=1, sxy=0
    lam1, lam2 = structure_tensor_eigs(g)
    assert lam1 == 8.0 and lam2 == 1.0


def test_rank_one_gradient_matrix_coherence_is_one():
    # integer-valued parallel rows keep the moments exact, so lam2 is exactly 0
    c = np.array([1.0, 2.0, -3.0, 4.0, 2.0])
    g = np.stack([3.0 * c, 4.0 * c], axis=1)
    _, mu = structure_stats(np.repeat(g, 5, axis=0)[:25], normalization="raw")
    assert mu == 1.0

    # generic float rank-1 may keep a rounding-sized lam2
    rng = np.random.default_rng(11)
    direction = rng.normal(size=2)
    g = rng.normal(size=(121, 1)) * direction
    lam1, lam2 = structure_tensor_eigs(g)
    assert lam2 <= 1e-12 * lam1
    _, mu = structure_stats(g)
    assert 1.0 - 1e-6 <= mu <= 1.0


def test_flat_patch_gives_zero_strength_and_coherence():
    strength, mu = structure_stats(np.zeros((121, 2)))
    assert strength == 0.0 and mu == 0.0
    # near-zero gradients fall under the epsilon rule rather than dividing 0/0
    strength, mu = structure_stats(np.full((121, 2), 1e-30))
    assert mu == 0.0 and np.isfinite(strength)


def test_coherence_bounds_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        g = rng.normal(size=(49, 2)) * rng.uniform(0.01, 10)
        _, mu = structure_stats(g)
        assert 0.0 <= mu <= 1.0


def test_strength_normalization_options():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(121, 2))
    lam1, _ = structure_tensor_eigs(g)
    s_norm, _ = structure_stats(g, normalization="sqrt-over-kr")
    s_raw, _ = structure_stats(g, normalization="raw")
    assert s_raw == pytest.approx(lam1)
    assert s_norm == pytest.approx(np.sqrt(lam1) / 11.0)
    with pytest.raises(ValueError):
        structure_stats(g, normalization="bogus")


def test_stats_map_matches_per_pixel_oracle():
    rng = np.random.default_rng(14)
    # window sizes 1 to 11, an image smaller than the window, a strip thinner than it
    for shape, k_r in (((14, 17), 5), ((14, 17), 1), ((14, 17), 3), ((14, 17), 11),
                       ((4, 6), 11), ((5, 40), 11)):
        img = rng.random(shape)
        stats = stats_map(img, k_r)
        assert stats.patch_size == k_r
        assert stats.strength.shape == img.shape == stats.coherence.shape

        pad = np.pad(img, 1, mode="edge")
        gx = (pad[1:-1, 2:] - pad[1:-1, :-2]) / 2.0
        gy = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / 2.0
        half = k_r // 2
        pxx = np.pad(gx * gx, half, mode="edge")
        pxy = np.pad(gx * gy, half, mode="edge")
        pyy = np.pad(gy * gy, half, mode="edge")
        for m in range(img.shape[0]):
            for n in range(img.shape[1]):
                sxx = pxx[m:m + k_r, n:n + k_r].sum()
                sxy = pxy[m:m + k_r, n:n + k_r].sum()
                syy = pyy[m:m + k_r, n:n + k_r].sum()
                ref = np.linalg.eigvalsh([[sxx, sxy], [sxy, syy]])[::-1]
                lam1 = max(ref[0], 0.0)
                lam2 = max(ref[1], 0.0)
                where = (shape, k_r, m, n)
                assert stats.strength[m, n] == pytest.approx(np.sqrt(lam1) / k_r, abs=1e-10), where
                if k_r == 1:
                    # a rank-one tensor: lam2 is a rounding residual here and in the
                    # closed form, and its square root moves coherence by ~2e-8
                    continue
                s1, s2 = np.sqrt(lam1), np.sqrt(lam2)
                mu_ref = 0.0 if s1 + s2 < 1e-12 else (s1 - s2) / (s1 + s2)
                assert stats.coherence[m, n] == pytest.approx(mu_ref, abs=1e-8), where


def test_stats_map_validation():
    with pytest.raises(ValueError):
        stats_map(np.zeros((16, 16)), k_r=4)
    with pytest.raises(ValueError):
        stats_map(np.zeros((2, 2)), k_r=3)


def test_stats_map_flat_image():
    stats = stats_map(np.full((12, 12), 0.5), 11)
    assert np.array_equal(stats.strength, np.zeros((12, 12)))
    assert np.array_equal(stats.coherence, np.zeros((12, 12)))


def test_region_map_zero_stats_is_flat():
    stats = GradStatsMap(strength=np.zeros((4, 4)), coherence=np.zeros((4, 4)),
                         patch_size=11)
    assert np.array_equal(region_class_map(stats), np.full((4, 4), REGION_FLAT))


def test_region_map_argmax_semantics_and_ties():
    def one(strength, mu, sigma_l2=1.8, sigma_l1=0.35):
        stats = GradStatsMap(strength=np.array([[strength]]),
                             coherence=np.array([[mu]]), patch_size=11)
        return region_class_map(stats, sigma_l2, sigma_l1)[0, 0]

    assert one(0.0, 0.9) == REGION_EDGE        # mu*1.8 = 1.62 dominates
    assert one(0.9, 0.0) == REGION_FINE        # strength dominates
    assert one(0.1, 0.05) == REGION_FLAT       # sigma_l1 = 0.35 dominates
    # ties break edge > fine > flat
    assert one(0.35, 0.35 / 1.8) == REGION_EDGE      # three-way tie
    assert one(0.5, 0.5 / 1.8) == REGION_EDGE        # edge vs fine tie
    assert one(0.35, 0.0) == REGION_FINE             # fine vs flat tie
    assert one(0.2, 0.35 / 1.8) == REGION_EDGE       # edge vs flat tie


def test_region_map_random_agrees_with_argmax():
    rng = np.random.default_rng(15)
    strength = rng.uniform(0, 1.0, (50, 50))
    mu = rng.uniform(0, 1.0, (50, 50))
    stats = GradStatsMap(strength=strength, coherence=mu, patch_size=11)
    labels = region_class_map(stats)
    triple = np.stack([np.full_like(strength, 0.35), strength, mu * 1.8], axis=-1)
    # argmax over [flat, fine, edge] scores; random floats never tie
    assert np.array_equal(labels, triple.argmax(axis=-1))
