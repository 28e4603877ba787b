import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from structkpn import kpn, tensor
from structkpn.corpus import synth_image
from structkpn.gradstats import stats_map
from structkpn.kpn import (KpnConfig, build_model, kpn_apply, denoise_image,
                           params_to_tensors, expected_param_shapes)
from structkpn.losses import loss_weights, struct_loss
from structkpn.tensor import (Tensor, ShapeError, backward, grad_check, local_conv, make_op,
                              reduce_sum)
from helpers import naive_local_conv

TINY = KpnConfig(kernel_size=3, stem_channels=8, num_res_blocks=1, groups=2)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.sampled_from([3, 5, 21]), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
@example(2, 21, 7, 5, 0)     # k > H and k > W: replication reaches 10 pixels past the border
@example(1, 5, 1, 9, 1)      # a single row
def test_local_conv_property_matches_naive_oracle(n, k, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1, h, w))
    v = rng.normal(size=(n, k * k, h, w))
    assert np.array_equal(local_conv(Tensor(x), Tensor(v)).data, naive_local_conv(x, v))


def test_local_conv_single_tap_selects_shifted_input():
    # a one-hot filter field at channel (s+r)*k+(t+r) must reproduce the input
    # shifted by (s,t) with edge replication; this pins the channel layout
    rng = np.random.default_rng(41)
    x = rng.normal(size=(1, 1, 6, 7))
    k, r = 3, 1
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            c = (s + r) * k + (t + r)
            v = np.zeros((1, k * k, 6, 7))
            v[:, c] = 1.0
            out = local_conv(Tensor(x), Tensor(v)).data
            rows = np.clip(np.arange(6) - s, 0, 5)
            cols = np.clip(np.arange(7) - t, 0, 6)
            assert np.array_equal(out[0, 0], x[0, 0][rows][:, cols])


def test_local_conv_normalized_kernels_preserve_constants():
    rng = np.random.default_rng(42)
    logits = rng.normal(size=(1, 25, 9, 9))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    v = e / e.sum(axis=1, keepdims=True)
    x = np.full((1, 1, 9, 9), 0.37)
    out = local_conv(Tensor(x), Tensor(v)).data
    assert np.allclose(out, 0.37, rtol=0, atol=1e-12)


def test_local_conv_validation():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeError):   # 8 channels is not an odd square
        local_conv(x, Tensor(np.zeros((1, 8, 4, 4))))
    with pytest.raises(ShapeError):   # 16 is a square of an even k
        local_conv(x, Tensor(np.zeros((1, 16, 4, 4))))
    with pytest.raises(ShapeError):   # spatial mismatch
        local_conv(x, Tensor(np.zeros((1, 9, 5, 4))))
    with pytest.raises(ShapeError):   # batch mismatch
        local_conv(x, Tensor(np.zeros((2, 9, 4, 4))))
    with pytest.raises(ShapeError):   # multi-channel input
        local_conv(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 9, 4, 4))))


def test_local_conv_gradients_finite_difference():
    rng = np.random.default_rng(43)
    # (N, H, W, k); the second case has H, W < k, so replicated reads fold
    # more than one pixel past the border back onto the edge
    for n, h, w, k in ((1, 5, 6, 3), (2, 3, 4, 5)):
        x = Tensor(rng.normal(size=(n, 1, h, w)), requires_grad=True, name="x")
        v = Tensor(rng.normal(size=(n, k * k, h, w)), requires_grad=True, name="v")
        u = Tensor(rng.normal(size=(n, 1, h, w)))

        def f(params):
            return reduce_sum(local_conv(params[0], params[1]) * u)

        report = grad_check(f, [x, v], coords_per_param=20)
        assert report.passed, (k, report.per_param)


def test_kpn_apply_frees_the_filter_field_once_dropped():
    # local_conv reads the field only for the input's gradient, and the noisy
    # input needs none, so at a no-softmax config the field dies with v
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2)
    params = build_model(cfg, 3)
    rng = np.random.default_rng(45)
    xb, u = rng.normal(size=(2, 1, 7, 6)), rng.normal(size=(2, 1, 7, 6))

    def grads(keep):
        tensors = params_to_tensors(params)
        v, yhat = kpn_apply(tensors, Tensor(xb), cfg)
        ref = weakref.ref(v.data)
        if not keep:
            del v
            assert ref() is None
        by_tensor = backward(reduce_sum(yhat * Tensor(u)), list(tensors.values()))
        return [by_tensor[t] for t in tensors.values()]

    for kept, freed in zip(grads(True), grads(False)):
        assert kept.tobytes() == freed.tobytes()


def test_sweep_keeps_interior_grads_only_for_held_tensors():
    # a kpn + struct-loss step: with every intermediate dropped, the sweep
    # leaves no interior grad behind; held intermediates keep theirs, and the
    # leaf grads are the same bytes either way
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2,
                    softmax_normalize_kernels=True)
    params = build_model(cfg, 3)
    rng = np.random.default_rng(46)
    clean = np.stack([synth_image(16, rng)[None] for _ in range(2)])
    noisy = clean + 0.1 * rng.normal(size=clean.shape)
    wts = [loss_weights(stats_map(c[0], 5)) for c in clean]

    def sweep(held):
        with pytest.MonkeyPatch.context() as mp:
            if held is not None:
                def keeping(*args):
                    held.append(make_op(*args))
                    return held[-1]
                mp.setattr(tensor, "make_op", keeping)
            tensors = params_to_tensors(params)
            loss = struct_loss(kpn_apply(tensors, Tensor(noisy), cfg)[1], clean, wts)
        loss.backward()
        return tensors, loss

    tensors, loss = sweep(None)
    interior = [n for n in tensor._toposort(loss._node)[:-1] if n.backward_fn is not None]
    # 9 model nodes (stem, conv1, relu, conv2, add, relu, head, softmax,
    # local_conv) and 11 loss nodes below the final scaling, ssim_map one of them
    assert len(interior) == 20
    assert all(node.grad is None for node in interior)

    held = []
    held_tensors, _ = sweep(held)
    assert len(held) > 20
    assert all(t.grad is not None for t in held if t.requires_grad)
    for name, t in tensors.items():
        assert t.grad.tobytes() == held_tensors[name].grad.tobytes()


def test_local_conv_grad_skips_constant_input():
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(size=(1, 1, 4, 4)))            # constant
    v = Tensor(rng.normal(size=(1, 9, 4, 4)), requires_grad=True)
    out = reduce_sum(local_conv(x, v))
    grads = backward(out, [v])
    assert x.grad is None
    assert np.any(grads[v] != 0)


def test_build_model_names_shapes_and_grouping():
    cfg = KpnConfig(kernel_size=5, stem_channels=16, num_res_blocks=3, groups=2)
    params = build_model(cfg, seed=0)
    expected = expected_param_shapes(cfg)
    assert set(params) == set(expected)
    for name, (shape, _) in expected.items():
        assert params[name].shape == shape
    # only the last block is grouped: halved input-channel axis
    assert params["res0.conv1.w"].shape == (16, 16, 3, 3)
    assert params["res1.conv2.w"].shape == (16, 16, 3, 3)
    assert params["res2.conv1.w"].shape == (16, 8, 3, 3)
    assert params["res2.conv2.w"].shape == (16, 8, 3, 3)
    assert params["head.w"].shape == (25, 16, 1, 1)
    assert params["head.b"].shape == (25,)


def test_build_model_init_statistics():
    cfg = KpnConfig(kernel_size=5, stem_channels=32, num_res_blocks=1, groups=1)
    params = build_model(cfg, seed=7)
    for b in ("stem.b", "res0.conv1.b", "head.b"):
        assert np.array_equal(params[b], np.zeros_like(params[b]))
    w = params["res0.conv1.w"]          # fan_in = 32*9 = 288, many samples
    expect = np.sqrt(2.0 / 288)
    assert w.std() == pytest.approx(expect, rel=0.1)
    assert abs(w.mean()) < 3 * expect / np.sqrt(w.size) * 3


def test_build_model_deterministic_per_seed():
    a = build_model(TINY, seed=5)
    b = build_model(TINY, seed=5)
    c = build_model(TINY, seed=6)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_config_validation():
    with pytest.raises(ValueError):
        KpnConfig(kernel_size=4)
    with pytest.raises(ValueError):
        KpnConfig(kernel_size=1)
    with pytest.raises(ValueError):
        KpnConfig(stem_channels=9, groups=2)
    with pytest.raises(ValueError):
        KpnConfig(num_res_blocks=-1)
    with pytest.raises(ValueError):
        KpnConfig(groups=0)
    with pytest.raises(ValueError, match="bogus"):
        KpnConfig(model_kind="bogus")


def test_kpn_apply_shapes_and_softmax_field():
    cfg = KpnConfig(kernel_size=3, stem_channels=8, num_res_blocks=1, groups=2,
                    softmax_normalize_kernels=True)
    params = params_to_tensors(build_model(cfg, seed=1), requires_grad=False)
    x = Tensor(np.random.default_rng(45).random((2, 1, 10, 11)))
    v, yhat = kpn_apply(params, x, cfg)
    assert v.data.shape == (2, 9, 10, 11)
    assert yhat.data.shape == (2, 1, 10, 11)
    assert np.allclose(v.data.sum(axis=1), 1.0)
    assert np.all(v.data > 0)


def test_kpn_apply_param_validation():
    params = params_to_tensors(build_model(TINY, seed=1), requires_grad=False)
    x = Tensor(np.zeros((1, 1, 8, 8)))
    wrong_cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2)
    with pytest.raises(ValueError):   # head channels disagree with kernel size
        kpn_apply(params, x, wrong_cfg)
    missing = dict(params)
    missing.pop("head.b")
    with pytest.raises(ValueError):
        kpn_apply(missing, x, TINY)
    with pytest.raises(ShapeError):
        kpn_apply(params, Tensor(np.zeros((1, 2, 8, 8))), TINY)


def test_plain_cnn_zero_head_is_identity():
    cfg = dataclasses.replace(TINY, model_kind="plain-cnn")
    raw = build_model(cfg, seed=3)
    assert raw["head.w"].shape == (1, 8, 1, 1) and not raw["head.w"].any()
    params = params_to_tensors(raw, requires_grad=False)
    x = np.random.default_rng(46).random((1, 1, 9, 9))
    res, out = kpn_apply(params, Tensor(x), cfg)
    assert res.data.shape == (1, 1, 9, 9) and not res.data.any()
    assert np.array_equal(out.data, x)


@pytest.mark.parametrize("kind, softmax", [("kpn", False), ("kpn", True), ("plain-cnn", False)])
@pytest.mark.parametrize("band_pixels", [1, 27, kpn._BAND_PIXELS])
def test_denoise_image_bands_match_whole_image(monkeypatch, kind, softmax, band_pixels):
    # 1 pixel gives one-row bands; 27 gives 3-row bands of an 8x9 image, the last of 2 rows
    monkeypatch.setattr(kpn, "_BAND_PIXELS", band_pixels)
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=2, groups=2,
                    softmax_normalize_kernels=softmax, model_kind=kind)
    params = build_model(cfg, seed=2)
    params["head.w"] = np.random.default_rng(51).normal(size=params["head.w"].shape)
    img = np.random.default_rng(47).random((8, 9))
    pixels = [(0, 0), (7, 8), (2, 3), (2, 3)] if kind == "kpn" else []
    den, kernels = denoise_image(params, cfg, img, pixels)
    v, yhat = kpn_apply(params_to_tensors(params, requires_grad=False),
                        Tensor(img[None, None]), cfg)
    assert den.shape == (8, 9) and kernels.shape == (len(pixels), 5, 5)
    assert np.allclose(den, yhat.data[0, 0], rtol=0, atol=1e-12)
    for kern, (m, n) in zip(kernels, pixels):
        assert np.array_equal(kern.ravel(), v.data[0, :, m, n])
    again = denoise_image(params, cfg, img, pixels)
    assert den.tobytes() == again[0].tobytes() and kernels.tobytes() == again[1].tobytes()


@pytest.mark.parametrize("kind, softmax", [("kpn", False), ("kpn", True), ("plain-cnn", False)])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_denoise_image_stream_matches_kpn_apply(monkeypatch, kind, softmax, blocks):
    # the backbone lags its input by 1 + 2 * blocks rows (5 at 2 blocks); bands
    # of 1, 2 and 3 rows are shorter than that, 4 rows do not divide 13, and 20
    # rows take the image in one band; images of 1 and 5 rows are no taller
    # than the lag at 2 blocks
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=blocks, groups=2,
                    softmax_normalize_kernels=softmax, model_kind=kind)
    params = build_model(cfg, seed=4)
    rng = np.random.default_rng(54)
    params = {name: rng.normal(0.0, 0.3, a.shape) for name, a in params.items()}
    w = 7
    for h in (1, 5, 13):
        img = rng.random((h, w))
        v, yhat = kpn_apply(params_to_tensors(params, requires_grad=False),
                            Tensor(img[None, None]), cfg)
        pixels = [(0, 0), (0, w - 1), (h // 2, 3), (h - 1, 0), (h - 1, w - 1)] \
            if kind == "kpn" else []
        for rows in (1, 2, 3, 4, 20):
            monkeypatch.setattr(kpn, "_BAND_PIXELS", rows * w)
            den, kernels = denoise_image(params, cfg, img, pixels)
            assert np.allclose(den, yhat.data[0, 0], rtol=0, atol=1e-12), (h, rows)
            for kern, (m, n) in zip(kernels, pixels):
                assert np.allclose(kern.ravel(), v.data[0, :, m, n], rtol=0, atol=1e-12)
            again = denoise_image(params, cfg, img, pixels)
            assert den.tobytes() == again[0].tobytes()
            assert kernels.tobytes() == again[1].tobytes()


def test_denoise_image_memory_does_not_grow_with_height():
    # the stream holds a few bands of rows whatever the height; what still grows
    # is the denoised output itself (0.5 MB at 512 x 128)
    cfg = KpnConfig(kernel_size=5, stem_channels=8)
    params = build_model(cfg, seed=3)

    def peak(h):
        img = np.random.default_rng(53).random((h, 128))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            denoise_image(params, cfg, img)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak(512) <= 1.25 * peak(64)


def test_denoise_image_validation():
    cfg = KpnConfig(kernel_size=3, stem_channels=8, num_res_blocks=1, groups=2,
                    softmax_normalize_kernels=True)
    params = build_model(cfg, seed=2)
    img = np.random.default_rng(47).random((8, 9))
    _, kernels = denoise_image(params, cfg, img, [(2, 3)])
    assert kernels[0].sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match=r"\(8, 3\) outside the 8x9 image"):
        denoise_image(params, cfg, img, [(2, 3), (8, 3)])
    with pytest.raises(ValueError, match=r"\(0, -1\)"):
        denoise_image(params, cfg, img, [(0, -1)])
    with pytest.raises(ShapeError):
        denoise_image(params, cfg, np.zeros((4, 4, 4)))
    plain = dataclasses.replace(cfg, model_kind="plain-cnn")
    with pytest.raises(ValueError, match="no filters"):
        denoise_image(build_model(plain, seed=2), plain, img, [(2, 3)])


def test_denoise_image_holds_one_band_of_the_filter_field():
    # the whole k = 21 field of a 192^2 image is 130 MB; a band is 14 MB
    cfg = KpnConfig(kernel_size=21, stem_channels=8, num_res_blocks=1, groups=2)
    params = build_model(cfg, seed=3)
    img = np.random.default_rng(52).random((192, 192))
    field_bytes = cfg.kernel_size ** 2 * img.size * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        den, _ = denoise_image(params, cfg, img)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert den.shape == img.shape
    assert peak < field_bytes / 4


def test_denoise_image_kinds():
    img = np.random.default_rng(48).random((8, 8))
    den, kernels = denoise_image(build_model(TINY, seed=1), TINY, img, [(1, 2)])
    assert den.shape == (8, 8) and kernels.shape == (1, 3, 3)
    plain = dataclasses.replace(TINY, model_kind="plain-cnn")
    den, kernels = denoise_image(build_model(plain, seed=1), plain, img)
    assert kernels.shape == (0, 3, 3)
    assert np.array_equal(den, img)
    with pytest.raises(ValueError):   # kpn parameters under a plain-cnn config
        denoise_image(build_model(TINY, seed=1), plain, img)


def test_gradients_reach_every_parameter():
    cfg = KpnConfig(kernel_size=3, stem_channels=8, num_res_blocks=2, groups=2,
                    softmax_normalize_kernels=True)
    tensors = params_to_tensors(build_model(cfg, seed=9))
    x = Tensor(np.random.default_rng(49).random((1, 1, 8, 8)))
    y = np.random.default_rng(50).random((1, 1, 8, 8))
    _, yhat = kpn_apply(tensors, x, cfg)
    diff = yhat - Tensor(y)
    grads = backward(reduce_sum(diff * diff), list(tensors.values()))
    for name, t in tensors.items():
        assert np.any(grads[t] != 0), f"no gradient reached {name}"
