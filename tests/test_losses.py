import numpy as np
import pytest

from structkpn.gradstats import GradStatsMap, stats_map
from structkpn.losses import (SsimConstants, LossWeights, l1_pixel, l2_pixel,
                              ssim_patch, loss_weights, struct_loss, window_weights)
from structkpn.tensor import (Tensor, ShapeError, backward, grad_check, reduce_sum,
                              ssim_from_moments)
from helpers import direct_ssim


def random_stats(rng, shape):
    return GradStatsMap(strength=rng.uniform(0, 1.2, shape),
                        coherence=rng.uniform(0, 1, shape), patch_size=11)


def test_weights_sum_to_one_and_positive():
    rng = np.random.default_rng(20)
    w = loss_weights(random_stats(rng, (40, 30)))
    total = w.gamma1 + w.gamma2 + w.gamma3
    assert np.all(np.abs(total - 1.0) < 1e-9)
    for g in (w.gamma1, w.gamma2, w.gamma3):
        assert np.all(g > 0.0)


def test_weights_argmax_matches_raw_scores():
    rng = np.random.default_rng(21)
    stats = random_stats(rng, (50, 50))
    w = loss_weights(stats, sigma_l2=1.8, sigma_l1=0.35)
    raw = np.stack([stats.coherence * 1.8,
                    np.full_like(stats.strength, 0.35),
                    stats.strength], axis=-1)
    soft = np.stack([w.gamma1, w.gamma2, w.gamma3], axis=-1)
    assert np.array_equal(raw.argmax(axis=-1), soft.argmax(axis=-1))


def test_weights_zero_stats_lean_on_l1():
    w = loss_weights(GradStatsMap(strength=np.zeros((3, 3)),
                                  coherence=np.zeros((3, 3)), patch_size=11))
    assert np.all(w.gamma2 > w.gamma1) and np.all(w.gamma2 > w.gamma3)
    # softmax of [0, 0.35, 0]
    e = np.exp([0.0, 0.35, 0.0])
    assert w.gamma2[0, 0] == pytest.approx(e[1] / e.sum())


def test_l1_l2_pixel_values_and_gradients():
    target = Tensor(np.array([4.0, 4.0, 4.0]))
    yhat = Tensor(np.array([1.0, 6.0, 4.0]), requires_grad=True)
    l1 = l1_pixel(yhat, target)
    assert np.array_equal(l1.data, [3.0, 2.0, 0.0])
    reduce_sum(l1).backward()
    assert np.array_equal(yhat.grad, [-1.0, 1.0, 0.0])
    yhat2 = Tensor(np.array([1.0, 6.0, 4.0]), requires_grad=True)
    l2 = l2_pixel(yhat2, target)
    assert np.array_equal(l2.data, [9.0, 4.0, 0.0])
    reduce_sum(l2).backward()
    assert np.array_equal(yhat2.grad, [2 * (1 - 4.0), 2 * (6 - 4.0), 0.0])


def test_ssim_patch_self_is_exactly_one():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = rng.random((11, 11))
        assert ssim_patch(p, p) == 1.0


def test_ssim_patch_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p, q = rng.random((11, 11)), rng.random((11, 11))
        assert ssim_patch(p, q) == ssim_patch(q, p)


def test_ssim_patch_matches_direct_formula():
    rng = np.random.default_rng(24)
    for _ in range(100):
        p, q = rng.random((11, 11)), rng.random((11, 11))
        assert abs(ssim_patch(p, q) - direct_ssim(p, q)) <= 1e-10


def test_ssim_patch_bounds_and_contrast_penalty():
    rng = np.random.default_rng(26)
    p = rng.random((11, 11))
    assert ssim_patch(p, 1.0 - p) < ssim_patch(p, np.clip(p + 0.01, 0, 1))
    assert -1.0 <= ssim_patch(p, 1.0 - p) <= 1.0


def test_ssim_patch_matches_the_tensor_moments_formula():
    # ssim_patch takes arrays only; its moments are the same (x * w).sum()
    # that the formula gives over Tensors, so its float keeps those bits
    rng = np.random.default_rng(27)
    p = rng.random((7, 7))
    q = rng.random((7, 7))
    pt, qt, w = Tensor(p), Tensor(q), Tensor(window_weights(p.shape))
    s = ssim_from_moments(reduce_sum(pt * w), reduce_sum(qt * w), reduce_sum(pt * pt * w),
                          reduce_sum(qt * qt * w), reduce_sum(pt * qt * w), SsimConstants())
    val = ssim_patch(p, q)
    assert isinstance(val, float) and val == s.item()


def test_ssim_patch_shape_mismatch():
    with pytest.raises(ShapeError):
        ssim_patch(np.zeros((5, 5)), np.zeros((7, 7)))


def _oracle_struct_loss(yhat, y, w, window):
    """Per-pixel recomputation with plain numpy windows (replicated borders)."""
    half = window // 2
    ph = np.pad(yhat, half, mode="edge")
    py = np.pad(y, half, mode="edge")
    total = 0.0
    for m in range(yhat.shape[0]):
        for n in range(yhat.shape[1]):
            wp = ph[m:m + window, n:n + window]
            wq = py[m:m + window, n:n + window]
            s = direct_ssim(wp, wq)
            d = yhat[m, n] - y[m, n]
            total += (w.gamma1[m, n] * d * d
                      + w.gamma2[m, n] * abs(d)
                      - w.gamma3[m, n] * s
                      + abs(d))
    return total / (2.0 * yhat.size)


def test_struct_loss_matches_per_pixel_oracle():
    rng = np.random.default_rng(29)
    y = rng.random((10, 12))
    yhat = np.clip(y + rng.normal(0, 0.1, y.shape), 0, 1)
    w = loss_weights(stats_map(y, 5))
    got = struct_loss(Tensor(yhat[None, None]), y[None, None], [w], SsimConstants(window=5)).item()
    want = _oracle_struct_loss(yhat, y, w, 5)
    assert abs(got - want) <= 1e-10


def test_struct_loss_batch_equals_mean_of_singles():
    rng = np.random.default_rng(30)
    ys = rng.random((2, 1, 12, 12))
    yhats = np.clip(ys + rng.normal(0, 0.05, ys.shape), 0, 1)
    ws = [loss_weights(stats_map(ys[i, 0], 5)) for i in range(2)]
    consts = SsimConstants(window=5)
    both = struct_loss(Tensor(yhats), ys, ws, consts).item()
    singles = [struct_loss(Tensor(yhats[i:i + 1]), ys[i:i + 1], [ws[i]], consts).item()
               for i in range(2)]
    assert both == pytest.approx(np.mean(singles), abs=1e-12)


def test_struct_loss_perfect_prediction_value():
    rng = np.random.default_rng(31)
    y = rng.random((12, 12))
    w = loss_weights(stats_map(y, 5))
    loss = struct_loss(Tensor(y[None, None]), y[None, None], [w], SsimConstants(window=5))
    # zero error terms and an exact SSIM of 1 leave only the -gamma3 term
    assert loss.item() == pytest.approx(-0.5 * w.gamma3.mean(), abs=1e-14)
    noisy = np.clip(y + rng.normal(0, 0.1, y.shape), 0, 1)
    worse = struct_loss(Tensor(noisy[None, None]), y[None, None], [w], SsimConstants(window=5))
    assert worse.item() > loss.item()


def test_struct_loss_gradient_finite_difference():
    rng = np.random.default_rng(32)
    y = rng.random((8, 9))
    w = loss_weights(stats_map(y, 3))
    yhat = Tensor(np.clip(y + rng.normal(0, 0.2, y.shape), 0, 1)[None, None],
                  requires_grad=True, name="yhat")
    consts = SsimConstants(window=3)

    report = grad_check(lambda ps: struct_loss(ps[0], y[None, None], [w], consts),
                        [yhat], coords_per_param=25)
    assert report.passed, report.per_param


def test_struct_loss_gradient_is_zero_for_targets():
    # weights and the clean image are constants: no tape through them
    rng = np.random.default_rng(33)
    y = rng.random((12, 12))
    w = loss_weights(stats_map(y, 5))
    yhat = Tensor(rng.random((1, 1, 12, 12)), requires_grad=True)
    yt = Tensor(y[None, None], requires_grad=False)
    loss = struct_loss(yhat, yt, [w], SsimConstants(window=5))
    grads = backward(loss, [yhat, yt])
    assert np.all(grads[yt] == 0.0)
    assert np.any(grads[yhat] != 0.0)


def test_struct_loss_validation():
    y = np.zeros((1, 1, 8, 8))
    w = LossWeights(gamma1=np.full((8, 8), 1 / 3), gamma2=np.full((8, 8), 1 / 3),
                    gamma3=np.full((8, 8), 1 / 3))
    with pytest.raises(ShapeError):
        struct_loss(Tensor(np.zeros((8, 8))), y, [w])          # not 4-D
    with pytest.raises(ShapeError):
        struct_loss(Tensor(np.zeros((1, 1, 8, 9))), y, [w])    # target mismatch
    with pytest.raises(ShapeError):
        struct_loss(Tensor(np.zeros((2, 1, 8, 8))), np.zeros((2, 1, 8, 8)), [w])
    bad = LossWeights(gamma1=np.zeros((4, 4)), gamma2=np.zeros((4, 4)),
                      gamma3=np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        struct_loss(Tensor(np.zeros((1, 1, 8, 8))), y, [bad])  # weight map size
