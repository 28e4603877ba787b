import dataclasses
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from structkpn import kpn, tensor
from structkpn.corpus import synth_image
from structkpn.gradstats import stats_map
from structkpn.kpn import (KpnConfig, build_model, kpn_apply, denoise_image,
                           params_to_tensors, expected_param_shapes)
from structkpn.losses import loss_weights, struct_loss
from structkpn.tensor import (Tensor, ShapeError, backward, conv2d, grad_check, kpn_filter,
                              local_conv, make_op, mul, reduce_sum, softmax_vec)
from helpers import kpn_field_oracle, naive_local_conv, one_blas_thread, openblas, traced

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


def _value_and_grads(op, arrays, u, fixed=None):
    # leaf `fixed`, when given, needs no gradient and gives None
    leaves = [Tensor(a, requires_grad=i != fixed) for i, a in enumerate(arrays)]
    out = op(*leaves)
    backward(reduce_sum(mul(out, Tensor(u))))
    return [out.data] + [t.grad for t in leaves]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.sampled_from([3, 5, 21]), st.integers(1, 40),
       st.integers(1, 40), st.booleans(), st.sampled_from([None, 1]),
       st.sampled_from([None, 0, 1]), st.integers(0, 2 ** 32 - 1))
@example(2, 3, 5, 3, 2, True, None, None, 0)     # k > H and k > W
@example(3, 2, 3, 9, 7, False, None, None, 1)
@example(2, 2, 5, 1, 1, True, None, None, 2)     # one pixel: the softmax's k^2 sum is numpy's pairwise one
# at k = 21 these fields take 4-8 tap blocks and bands an image at the
# default block size, as the default config's 48^2 patches do; 30 x 100 and
# 50 x 37 put a band's first pixel off a 16-pixel panel unless the band
# keeps to the ones its rows allow, and their last panel is 8 and 2 wide
@example(2, 8, 21, 48, 48, True, None, None, 8)
@example(2, 8, 21, 48, 48, False, None, None, 9)
@example(1, 64, 21, 50, 48, True, None, None, 10)
@example(1, 16, 21, 40, 64, False, None, None, 11)
@example(1, 8, 21, 30, 100, True, None, None, 12)
@example(1, 8, 21, 30, 100, False, None, None, 13)
@example(1, 8, 21, 50, 37, True, None, None, 14)
@example(1, 8, 21, 50, 37, False, None, None, 15)
# blocks forced down to the smallest that keep the bits: several images,
# each in several bands and tap blocks
@example(3, 8, 21, 30, 37, True, 1, None, 16)
@example(2, 4, 21, 33, 35, False, 1, None, 17)
@example(1, 8, 21, 600, 1, True, 1, None, 18)    # w = 1: a band spans 16 rows
@example(2, 3, 21, 40, 50, True, 1, None, 19)    # 3 features: blocks above the small-matrix bound
@example(1, 1, 21, 60, 61, False, 1, None, 20)   # 1 feature: its head's weight gradient is a gemv
# a frozen backbone: the features need no gradient, but the softmax's
# per-pixel sums still run over bands for the head's gradients
@example(2, 8, 21, 30, 37, True, 1, 1, 21)
@example(1, 8, 21, 48, 48, True, None, 1, 22)
@example(2, 8, 21, 30, 37, False, 1, 1, 23)
@example(2, 8, 21, 30, 37, True, 1, 0, 24)     # x needs no gradient
# train-smoke's shape: a field of one block, kept on the tape but for the
# plain head with x frozen, whose backward reads no filters
@example(4, 16, 5, 48, 48, True, None, None, 25)
@example(4, 16, 5, 48, 48, False, None, None, 26)
@example(4, 16, 5, 48, 48, False, None, 0, 27)
def test_kpn_filter_matches_head_softmax_local_conv(n, c, k, h, w, softmax, block, fixed, seed):
    # kpn_filter against the three ops it fuses: the value and the gradients
    # of x, feats, weights and bias are the same bytes, with the field whole
    # or in blocks of the default size, or forced through _BLOCK_VALUES = 1
    # into the smallest blocks ``_bands`` and ``_tap_blocks`` allow; with
    # every input needing a gradient, or all but x or feats. It runs at one
    # BLAS thread, as perfbench does: at more, OpenBLAS divides each GEMM
    # between its threads by the GEMM's shape, so a split one can round
    # otherwise than the whole one in the last bit. A field of one block
    # runs the unfused ops' GEMMs, so it is checked at the default count too
    rng = np.random.default_rng(seed)
    arrays = (rng.normal(size=(n, 1, h, w)), rng.normal(size=(n, c, h, w)),
              rng.normal(size=(k * k, c, 1, 1)), rng.normal(size=k * k))
    u = rng.normal(size=(n, 1, h, w))

    def oracle(x, f, wt, b):
        v = conv2d(f, wt, b)
        return local_conv(x, softmax_vec(v, axis=1) if softmax else v)

    def same_bytes():
        want = _value_and_grads(oracle, arrays, u, fixed)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(tensor, "_BLOCK_VALUES", block)
            got = _value_and_grads(lambda *p: kpn_filter(*p, softmax=softmax), arrays, u, fixed)
        return [None if a is None else a.tobytes() for a in got] == \
            [None if b is None else b.tobytes() for b in want]

    with one_blas_thread():
        assert same_bytes()
    if block is None and n * k * k * h * w <= tensor._BLOCK_VALUES:
        assert same_bytes()


def test_kpn_filter_keeps_its_bytes_under_every_blas_kernel_set():
    # OpenBLAS picks its kernels by the CPU when it loads: an AVX-512 machine
    # runs the SkylakeX ones, an AVX2 one the Haswell or Zen ones, an older
    # one others, and each tiles a GEMM its own way. OPENBLAS_CORETYPE forces
    # a set in a child process, which runs the explicit examples of the byte
    # test above at one thread. A set the CPU cannot run kills its child, and
    # one that loads a set already run (the name it reports) is not run again
    if openblas() is None:
        pytest.skip("numpy ships no OpenBLAS")
    script = (
        "import ctypes, sys\n"
        "from hypothesis import Phase, settings\n"
        "import helpers\n"
        "settings.register_profile('explicit', phases=[Phase.explicit], database=None)\n"
        "settings.load_profile('explicit')\n"
        "core = helpers.openblas().scipy_openblas_get_corename64_\n"
        "core.argtypes, core.restype = [], ctypes.c_char_p\n"
        "name = core().decode()\n"
        "print(name, flush=True)\n"
        "if name not in sys.argv[1:]:\n"
        "    import test_kpn\n"
        "    test_kpn.test_kpn_filter_matches_head_softmax_local_conv()\n")
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    run, skipped = [], []
    for coretype in ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        child = subprocess.run([sys.executable, "-c", script, *run], env=env,
                               capture_output=True, text=True)
        if child.returncode < 0:                 # killed by a signal, as SIGILL
            skipped.append(f"{coretype} (signal {-child.returncode})")
            continue
        assert child.returncode == 0, (coretype, child.stdout, child.stderr[-4000:])
        name = child.stdout.split()[0]
        if name in run:
            skipped.append(f"{coretype} (loads {name}, already run)")
        else:
            run.append(name)
    print("kernel sets run:", ", ".join(run), "| skipped:", ", ".join(skipped) or "none")
    assert run


@pytest.mark.parametrize("shape, block, softmax, bands, backward", [
    ((4, 16, 5, 48, 48), None, True, 1, 0),    # a field of one block, kept on the tape
    ((1, 3, 21, 40, 50), 1, True, 1, 1),       # one band and 2 blocks of taps
    ((1, 8, 21, 30, 100), None, False, 5, 5),  # 5 bands and 6 blocks of taps
    ((1, 8, 21, 30, 100), None, True, 5, 11),
])
def test_kpn_filter_rebuilds_its_filters_only_where_it_kept_none(monkeypatch, shape, block,
                                                                 softmax, bands, backward):
    # the head's GEMM runs once a band in the forward; a kept field is read
    # back whole, and a one-band image rebuilds its filters once, for all its
    # gradients. Over several bands the band pass rebuilds them once a band,
    # for x's gradient and the softmax's sums, and the tap pass once a block
    # of taps for a softmax head only
    n, c, k, h, w = shape
    rng = np.random.default_rng(28)
    leaves = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((n, 1, h, w), (n, c, h, w), (k * k, c, 1, 1), (k * k,))]
    if block is not None:
        monkeypatch.setattr(tensor, "_BLOCK_VALUES", block)
    calls, head = [], tensor._head_field

    def counted(*args):
        calls.append(1)
        return head(*args)

    monkeypatch.setattr(tensor, "_head_field", counted)
    assert len(tensor._bands(h, w, k * k, c)) == bands
    out = kpn_filter(*leaves, softmax=softmax)
    assert len(calls) == n * bands
    reduce_sum(mul(out, Tensor(rng.normal(size=(n, 1, h, w))))).backward()
    assert len(calls) == n * bands + backward
    assert all(t.grad is not None for t in leaves)


@pytest.mark.parametrize("h, w, k, c, block", [
    (48, 48, 21, 64, None), (30, 100, 21, 8, None), (50, 37, 21, 8, None), (600, 1, 21, 8, 1),
    (30, 37, 21, 8, 1), (40, 50, 21, 3, 1), (60, 61, 21, 1, 1), (256, 256, 21, 64, None),
    (255, 255, 21, 64, None), (40, 40, 5, 4, 1), (9, 9, 5, 4, 1)])
def test_kpn_filter_blocks_keep_to_whole_gemm_kernels(monkeypatch, h, w, k, c, block):
    # the cuts that keep kpn_filter's bits: a band starts at a multiple of 16
    # pixels and spans more than one 192-pixel panel block, a block of taps
    # starts at a multiple of 8 taps, and every split GEMM is above
    # OpenBLAS's small-matrix bound; the rest is as even as the block size
    # asks, in whole 8-tap steps, the last block taking the k^2-th tap
    if block is not None:
        monkeypatch.setattr(tensor, "_BLOCK_VALUES", block)
    k2, px = k * k, h * w
    bands, taps = tensor._bands(h, w, k2, c), tensor._tap_blocks(px, k2, c)
    for parts, total in ((bands, h), (taps, k2)):
        assert parts[0][0] == 0 and parts[-1][1] == total
        assert all(e == i2 for (_, e), (i2, _) in zip(parts, parts[1:]))
    assert all(i * w % tensor._GEMM_ROWS == 0 for i, _ in bands)
    assert all(t0 % tensor._GEMM_TAPS == 0 for t0, _ in taps)
    if len(bands) > 1:
        assert all((e - i) * w * k2 * c > tensor._SMALL_GEMM for i, e in bands)
        assert all((e - i) * w > tensor._GEMM_PANEL for i, e in bands)
    if len(taps) > 1:
        assert all((t1 - t0) * px * c > tensor._SMALL_GEMM for t0, t1 in taps)
    if px * k2 * c > 4 * tensor._SMALL_GEMM and c >= 8:
        assert len(bands) > 1 and len(taps) > 1   # split as far as the bound allows
    if block is None and c >= 4:
        step = tensor._GEMM_ROWS // math.gcd(w, tensor._GEMM_ROWS)
        assert max(e - i for i, e in bands) * w * k2 <= max(2 * tensor._BLOCK_VALUES, 2 * step * w * k2)
        assert max(t1 - t0 for t0, t1 in taps) * px <= max(2 * tensor._BLOCK_VALUES, 9 * px)


def test_kpn_filter_validation():
    x, f = Tensor(np.zeros((2, 1, 4, 5))), Tensor(np.zeros((2, 3, 4, 5)))
    w, b = Tensor(np.zeros((9, 3, 1, 1))), Tensor(np.zeros(9))
    kpn_filter(x, f, w, b)
    with pytest.raises(ShapeError):   # multi-channel input
        kpn_filter(f, f, w, b)
    with pytest.raises(ShapeError):   # features on another grid
        kpn_filter(x, Tensor(np.zeros((2, 3, 4, 4))), w, b)
    with pytest.raises(ShapeError):   # a 3x3 head
        kpn_filter(x, f, Tensor(np.zeros((9, 3, 3, 3))), b)
    with pytest.raises(ShapeError):   # 8 filter channels is not an odd square
        kpn_filter(x, f, Tensor(np.zeros((8, 3, 1, 1))), Tensor(np.zeros(8)))
    with pytest.raises(ShapeError):   # bias of another length
        kpn_filter(x, f, w, Tensor(np.zeros(8)))


@pytest.mark.parametrize("softmax", [False, True])
def test_kpn_apply_and_its_backward_hold_the_field_once(softmax):
    # at k = 21 the field of one 128^2 image is 58 MB; kpn_filter never holds
    # it whole, only a block of it (2 MB) at a time, so the forward and the
    # backward together stay under a quarter of one field: the traced peak
    # is 0.13x the field plain and 0.17x with softmax, and was 1.08x when
    # the field was held once
    cfg = KpnConfig(kernel_size=21, stem_channels=8, num_res_blocks=1, groups=2,
                    softmax_normalize_kernels=softmax)
    tensors = params_to_tensors(build_model(cfg, 3))
    rng = np.random.default_rng(55)
    x, u = Tensor(rng.random((1, 1, 128, 128))), Tensor(rng.normal(size=(1, 1, 128, 128)))
    field_bytes = cfg.kernel_size ** 2 * 128 * 128 * 8
    peak = traced(lambda: reduce_sum(mul(kpn_apply(tensors, x, cfg), u)).backward()).peak
    assert all(t.grad is not None for t in tensors.values())
    assert peak < 0.25 * field_bytes, peak


def test_kpn_apply_frees_the_filter_field_once_dropped():
    # kpn_apply never holds the field; the whole-field oracle's field, which
    # local_conv reads only for the input's gradient, dies with v at a
    # no-softmax config, and both give kpn_apply's gradient bytes
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2)
    params = build_model(cfg, 3)
    rng = np.random.default_rng(45)
    xb, u = rng.normal(size=(2, 1, 7, 6)), rng.normal(size=(2, 1, 7, 6))

    def grads(keep):
        tensors = params_to_tensors(params)
        if keep is None:
            yhat = kpn_apply(tensors, Tensor(xb), cfg)
        else:
            v, yhat = kpn_field_oracle(tensors, Tensor(xb), cfg)
            ref = weakref.ref(v.data)
            if not keep:
                del v
                assert ref() is None
        by_tensor = backward(reduce_sum(yhat * Tensor(u)), list(tensors.values()))
        return [by_tensor[t].tobytes() for t in tensors.values()]

    assert grads(None) == grads(True) == grads(False)


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
            loss = struct_loss(kpn_apply(tensors, Tensor(noisy), cfg), clean, wts)
        # counted before the sweep, which drops every edge it has passed
        interior = [n for n in tensor._toposort(loss._node)[:-1] if n.backward_fn is not None]
        loss.backward()
        return tensors, interior

    tensors, interior = sweep(None)
    # 7 model nodes (stem, conv1, relu, conv2, add, relu, and kpn_filter for
    # the head, softmax and filtering) and 11 loss nodes below the final
    # scaling, ssim_map one of them
    assert len(interior) == 18
    assert all(node.grad is None for node in interior)

    held = []
    held_tensors, _ = sweep(held)
    assert len(held) > 18
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
    yhat = kpn_apply(params, x, cfg)
    v, want = kpn_field_oracle(params, x, cfg)
    assert v.data.shape == (2, 9, 10, 11)
    assert yhat.data.shape == (2, 1, 10, 11)
    assert yhat.data.tobytes() == want.data.tobytes()
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
    out = kpn_apply(params, Tensor(x), cfg)
    res, _ = kpn_field_oracle(params, Tensor(x), cfg)
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
    v, yhat = kpn_field_oracle(params_to_tensors(params, requires_grad=False),
                               Tensor(img[None, None]), cfg)
    assert den.shape == (8, 9) and kernels.shape == (len(pixels), 5, 5)
    assert np.allclose(den, yhat.data[0, 0], rtol=0, atol=1e-12)
    for kern, (m, n) in zip(kernels, pixels):
        assert np.array_equal(kern.ravel(), v.data[0, :, m, n])
    again = denoise_image(params, cfg, img, pixels)
    assert den.tobytes() == again[0].tobytes() and kernels.tobytes() == again[1].tobytes()


@pytest.mark.parametrize("kind, softmax, stem_channels", [
    ("kpn", False, 8), ("kpn", True, 8), ("plain-cnn", False, 8), ("kpn", True, 16)],
    ids=["kpn-False", "kpn-True", "plain-cnn-False", "kpn-True-16"])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_denoise_image_stream_matches_kpn_apply(monkeypatch, kind, softmax, stem_channels,
                                                blocks):
    # the backbone lags its input by 1 + 2 * blocks rows (5 at 2 blocks); bands
    # of 1, 2 and 3 rows are shorter than that, 4 rows do not divide 13, and 20
    # rows take the image in one band; images of 1 and 5 rows are no taller
    # than the lag at 2 blocks. 16 channels is the SMOKE width, where a band's
    # per-tap sums can round differently from the whole image's.
    cfg = KpnConfig(kernel_size=5, stem_channels=stem_channels, num_res_blocks=blocks, groups=2,
                    softmax_normalize_kernels=softmax, model_kind=kind)
    params = build_model(cfg, seed=4)
    rng = np.random.default_rng(54)
    params = {name: rng.normal(0.0, 0.3, a.shape) for name, a in params.items()}
    w = 7
    for h in (1, 5, 13):
        img = rng.random((h, w))
        v, yhat = kpn_field_oracle(params_to_tensors(params, requires_grad=False),
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
    # is the denoised output itself, 8 bytes a pixel, so the peak may grow by the
    # taller output's extra bytes and 16 KiB of slack, no more
    cfg = KpnConfig(kernel_size=5, stem_channels=8)
    params = build_model(cfg, seed=3)

    def peak(h):
        return traced(denoise_image, params, cfg, np.random.default_rng(53).random((h, 128))).peak

    assert peak(512) - peak(64) <= (512 - 64) * 128 * 8 + 16 * 1024


def test_denoise_image_memory_does_not_grow_with_width():
    # past kpn._STRIP_COLUMNS the stream runs on strips of at most that many
    # columns, so each conv's kept rows and a band's rows stay a strip wide.
    # What still grows is the output, 8 bytes a pixel, and an inner strip's
    # second halo of 11 columns (45 KiB here), so the peak may grow by the wider
    # output's extra bytes and 64 KiB of slack (13.5 MiB before the strips)
    cfg = KpnConfig(kernel_size=5, stem_channels=8)
    params = build_model(cfg, seed=3)

    def peak(w):
        return traced(denoise_image, params, cfg, np.random.default_rng(53).random((16, w))).peak

    assert peak(4096) - peak(1024) <= 16 * (4096 - 1024) * 8 + 64 * 1024


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
    cases = [
        # the whole k = 21 field of a 192^2 image is 130 MB; a band of it is a
        # block, 2 MB: the peak is 1.3 blocks (3.5 when a band was 7 MB)
        (192, 192, 1, 2 * tensor._BLOCK_VALUES * 8),
        # a 1024-wide image streams as 2 strips of 512 columns (523 with the
        # 11-column halo) in 3-row backbone bands, which the drained lag never
        # outgrows, and each band's field is filtered a row (1.8 MB) at a time:
        # 3.4 MiB (6.3 MiB unstripped, when the last band left the 11-row lag
        # at once)
        (24, 1024, 5, 4 * 2 ** 20),
    ]
    for h, w, blocks, bound in cases:
        cfg = KpnConfig(kernel_size=21, stem_channels=8, num_res_blocks=blocks, groups=2)
        params = build_model(cfg, seed=3)
        img = np.random.default_rng(52).random((h, w))
        (den, _), peak, _ = traced(denoise_image, params, cfg, img)
        assert den.shape == img.shape
        assert peak < bound, (h, w, peak, bound)


def test_denoise_image_odd_width_holds_what_an_even_one_does():
    # a 255-wide band of features, 8 rows, has its field cut into the 2-row
    # bands a 256-wide one has, each head GEMM widened by at most 15 pixels on
    # either side to whole 16-pixel panels, so the peaks differ by those
    # pixels' filters, 106 KiB at most (the 255-wide one traced 0.02 MiB less).
    # Filtered whole, the band's 7.2 MB field put 1.9 MiB on the peak, and
    # 3.9 MiB once the convs wrote into each other's inputs
    cfg = KpnConfig()
    params = build_model(cfg, seed=3)

    def peak(w):
        return traced(denoise_image, params, cfg, np.random.default_rng(55).random((64, w))).peak

    assert peak(255) <= peak(256) + 256 * 1024


@pytest.mark.parametrize("h, w", [(16, 255), (24, 100), (60, 37)])
def test_denoise_image_field_bands_keep_the_bits_of_the_whole_band(monkeypatch, h, w):
    # a band's field is cut into bands of rows that may start on any row, as
    # 2 of 255, 5 of 100 and 16 of 37 columns do here, but each head GEMM
    # runs over whole 16-pixel panels, its rows' pixels widened, so every
    # filter has the bits of the backbone band's field in one piece, which a
    # block of 2^40 values gives
    cfg = KpnConfig(softmax_normalize_kernels=True)
    params = build_model(cfg, seed=3)
    params["head.w"] = np.random.default_rng(59).normal(0.0, 0.05, params["head.w"].shape)
    img = np.random.default_rng(60).random((h, w))
    pixels = [(m, n) for m in range(h) for n in (0, w // 2, w - 1)]
    with one_blas_thread():
        den, kernels = denoise_image(params, cfg, img, pixels)
        monkeypatch.setattr(tensor, "_BLOCK_VALUES", 2 ** 40)
        whole, whole_kernels = denoise_image(params, cfg, img, pixels)
    assert den.tobytes() == whole.tobytes()
    assert kernels.tobytes() == whole_kernels.tobytes()


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_stream_backbone_yields_no_band_taller_than_its_input_band(blocks):
    # the shapes of test_denoise_image_stream_matches_kpn_apply: lags of 1, 3
    # and 5 rows against bands of 1 to 20 rows, and images of 1 and 5 rows, no
    # taller than the lag. Every band of features follows the one before and
    # the last ends at the image's last row.
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=blocks, groups=2)
    params = build_model(cfg, seed=4)
    w = 7
    for h in (1, 5, 13):
        img = np.random.default_rng(56).random((h, w))
        for band in (1, 2, 3, 4, 20):
            row = 0
            for first, feats in kpn._stream_backbone(params, cfg, img, band):
                assert first == row and feats.shape == (8, feats.shape[1], w)
                assert 1 <= feats.shape[1] <= band, (h, band, first, feats.shape)
                row += feats.shape[1]
            assert row == h


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 120), st.integers(1, 12),
       st.integers(0, 2), st.sampled_from([("kpn", False), ("kpn", True), ("plain-cnn", False)]),
       st.sampled_from([3, 5]), st.integers(0, 2 ** 32 - 1))
@example(9, 40, 20, 8, 2, ("kpn", True), 5, 0)     # 5 strips of 8 columns, 11-column halos
@example(6, 13, 1, 1, 1, ("kpn", False), 3, 1)     # one-column strips in one-row bands
def test_denoise_image_strips_and_bands_match_the_field_oracle(h, w, band_pixels, strip, blocks,
                                                               kind, k, seed):
    # strips forced narrower than the image; every pixel's filter is dumped, so
    # the check covers the pixels in each strip's halo columns too
    cfg = KpnConfig(kernel_size=k, stem_channels=8, num_res_blocks=blocks, groups=2,
                    softmax_normalize_kernels=kind[1], model_kind=kind[0])
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(0.0, 0.3, a.shape) for name, a in build_model(cfg, 4).items()}
    img = rng.random((h, w))
    pixels = [(m, n) for m in range(h) for n in range(w)] if kind[0] == "kpn" else []
    v, yhat = kpn_field_oracle(params_to_tensors(params, requires_grad=False),
                               Tensor(img[None, None]), cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kpn, "_BAND_PIXELS", band_pixels)
        mp.setattr(kpn, "_STRIP_COLUMNS", strip)
        den, kernels = denoise_image(params, cfg, img, pixels)
        again = denoise_image(params, cfg, img, pixels)
    assert np.allclose(den, yhat.data[0, 0], rtol=0, atol=1e-12)
    if pixels:
        field = v.data[0].reshape(k, k, h * w).transpose(2, 0, 1)
        assert np.allclose(kernels, field, rtol=0, atol=1e-12)
    assert den.tobytes() == again[0].tobytes() and kernels.tobytes() == again[1].tobytes()


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
    yhat = kpn_apply(tensors, x, cfg)
    diff = yhat - Tensor(y)
    grads = backward(reduce_sum(diff * diff), list(tensors.values()))
    for name, t in tensors.items():
        assert np.any(grads[t] != 0), f"no gradient reached {name}"
