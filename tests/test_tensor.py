import ast
import graphlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from structkpn import tensor
from structkpn.tensor import (Tensor, ShapeError, add, sub, mul, div, neg, abs_val,
                              relu, softmax_vec, reduce_mean, reduce_sum, conv2d,
                              box_filter, ssim_map, backward, make_op, accumulate_grad,
                              grad_check, registered_ops)
from structkpn.losses import SsimConstants
from helpers import direct_ssim, naive_box_mean, naive_conv2d


def test_add_mul_backward_hand_values():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    # f = mean(a*b + a) -> df/da = (b+1)/3, df/db = a/3
    loss = reduce_mean(add(mul(a, b), a))
    loss.backward()
    assert np.allclose(a.grad, (b.data + 1.0) / 3.0)
    assert np.allclose(b.grad, a.data / 3.0)
    assert loss.item() == pytest.approx((4 + 10 + 18 + 6) / 3.0)


def test_scalar_operand_variants():
    a = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    assert np.array_equal(add(a, 1.5).data, [3.5, -1.5])
    assert np.array_equal(sub(a, 1.0).data, [1.0, -4.0])
    assert np.array_equal(mul(a, -2.0).data, [-4.0, 6.0])
    loss = reduce_sum(mul(a, 3.0))
    loss.backward()
    assert np.array_equal(a.grad, [3.0, 3.0])


def test_operator_dunders():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]))
    out = ((a + b) * 2.0 - 1.0) / b
    assert np.allclose(out.data, (np.array([4.0, 7.0]) * 2 - 1) / b.data)
    assert np.allclose((-a).data, [-1.0, -2.0])
    assert np.allclose((2.0 + a).data, [3.0, 4.0])


def test_diamond_graph_accumulates_both_paths():
    a = Tensor(np.array([3.0]), requires_grad=True)
    # f = sum(a*a + a*a): two tape paths into the same leaf, grad = 4a
    loss = reduce_sum(add(mul(a, a), mul(a, a)))
    loss.backward()
    assert np.array_equal(a.grad, [12.0])


def test_repeated_backward_resets_grads():
    a = Tensor(np.array([2.0]), requires_grad=True)
    loss = reduce_sum(mul(a, a))
    loss.backward()
    g1 = a.grad.copy()
    loss.backward()
    assert np.array_equal(a.grad, g1)   # no double accumulation across sweeps


def test_constant_subgraph_drops_tape():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    out = mul(a, b)
    assert not out.requires_grad
    assert out._parents == ()
    assert out._op.endswith("(const)")
    p = Tensor(np.array([5.0, 6.0]), requires_grad=True)
    mixed = mul(out, p)
    assert mixed.requires_grad and len(mixed._parents) == 2


def test_sweep_drops_grads_of_dropped_op_outputs_only():
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    held = mul(a, 3.0)
    dropped = relu(held)
    node = dropped._node
    hand = Tensor(dropped.data * 2.0)            # a node built outside make_op
    hand._node = tensor._Node(True, (node,), lambda g: accumulate_grad(node, 2.0 * g), "hand")
    hand_node = hand._node
    loss = reduce_sum(hand)
    del dropped, hand
    loss.backward()
    assert node.grad is None
    assert np.array_equal(hand_node.grad, [1.0, 1.0])
    assert np.array_equal(held.grad, [2.0, 0.0])
    assert np.array_equal(a.grad, [6.0, 0.0])


def test_backward_requires_scalar():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ShapeError):
        mul(a, a).backward()


def test_shape_mismatch_raises_with_axis():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        add(a, b)
    with pytest.raises(ShapeError):
        sub(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))


def test_div_values_and_grad():
    a = Tensor(np.array([6.0, -8.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 4.0]), requires_grad=True)
    loss = reduce_sum(div(a, b))
    loss.backward()
    assert np.allclose(a.grad, 1.0 / b.data)
    assert np.allclose(b.grad, -a.data / b.data ** 2)


def test_abs_relu_subgradient_zero_at_zero():
    a = Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
    reduce_sum(abs_val(a)).backward()
    assert np.array_equal(a.grad, [-1.0, 0.0, 1.0])
    a2 = Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
    reduce_sum(relu(a2)).backward()
    assert np.array_equal(a2.grad, [0.0, 0.0, 1.0])
    assert np.array_equal(relu(a).data, [0.0, 0.0, 3.0])
    assert np.array_equal(neg(a).data, [2.0, 0.0, -3.0])


def test_softmax_normalizes_and_shift_invariant():
    rng = np.random.default_rng(0)
    v = Tensor(rng.normal(size=(3, 5)))
    out = softmax_vec(v, axis=1)
    assert np.allclose(out.data.sum(axis=1), 1.0)
    shifted = softmax_vec(Tensor(v.data + 1000.0), axis=1)
    assert np.allclose(out.data, shifted.data)
    assert np.isfinite(shifted.data).all()


def test_reduce_mean_empty_raises():
    with pytest.raises(ShapeError):
        reduce_mean(Tensor(np.zeros((0, 3))))


@st.composite
def conv_cases(draw):
    # the last entry is the forward block size in output values: 1 gives
    # one-row blocks, 25 and 100 split a small image into blocks of a few
    # rows, and 700 puts a few whole small images in one block
    groups = draw(st.sampled_from([1, 2]))
    return (draw(st.integers(1, 3)), groups * draw(st.integers(1, 2)),
            groups * draw(st.integers(1, 3)), groups,
            draw(st.sampled_from([1, 3, 5, 11])), draw(st.sampled_from([1, 3, 5, 11])),
            draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from([1, 25, 100, 700, tensor._BLOCK_VALUES])))


def blocked_conv2d(block_values, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_BLOCK_VALUES", block_values)
        return conv2d(*args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(conv_cases())
@example((2, 1, 1, 1, 1, 11, 6, 9, 0, 262144))      # 1x11 row kernel, Cin = Cout = 1
@example((2, 1, 1, 1, 11, 1, 9, 6, 1, 262144))      # 11x1 column kernel
@example((2, 1, 4, 1, 3, 3, 5, 7, 2, 262144))       # stem: Cin = 1
@example((2, 3, 9, 1, 1, 1, 4, 6, 3, 262144))       # head: 1x1, Cout > Cin
@example((3, 4, 6, 2, 3, 3, 4, 7, 4, 262144))       # grouped residual block
@example((3, 4, 6, 2, 3, 3, 7, 9, 10, 100))         # grouped: 2-row blocks, the last of 1
@example((2, 1, 4, 1, 3, 3, 7, 5, 11, 1))           # stem, one-row blocks
@example((2, 1, 1, 1, 1, 11, 7, 9, 12, 25))         # 1x11 rows: 2-row blocks, the last of 1
@example((2, 1, 1, 1, 11, 1, 7, 6, 13, 25))         # 11x1 columns: blocks of 4 and 3 rows
@example((3, 4, 6, 2, 3, 3, 4, 7, 18, 700))         # grouped: blocks of 2 whole images, then 1
@example((2, 1, 3, 1, 3, 3, 5, 6, 20, 262144))      # 3x3, Cin = 1
@example((2, 2, 2, 1, 3, 3, 5, 6, 21, 262144))      # 3x3, Cin = Cout
@example((2, 4, 6, 2, 3, 3, 5, 6, 22, 262144))      # 3x3, grouped
@example((1, 28, 2, 1, 3, 3, 4, 5, 23, 262144))     # 252 stacked rows: one stacked chunk
@example((1, 29, 2, 1, 3, 3, 4, 5, 24, 262144))     # 261 rows, over _STACK_ROWS: per-tap chunks
@example((1, 85, 2, 1, 1, 3, 3, 4, 25, 262144))     # 1x3 at 255 stacked rows
@example((1, 86, 2, 1, 1, 3, 3, 4, 26, 262144))     # 1x3 at 258 rows: per-tap chunks
@example((2, 16, 16, 1, 3, 3, 5, 6, 27, 262144))    # SMOKE 16-channel conv: taps stacked
@example((2, 16, 16, 2, 3, 3, 5, 6, 28, 262144))    # SMOKE grouped 8-channel conv: stacked
@example((2, 16, 16, 1, 3, 3, 7, 6, 29, 4100))      # 144 stacked rows: 2-row blocks, the last of 1
@example((3, 16, 8, 2, 3, 3, 4, 5, 30, 26000))      # stacked, grouped: 2 whole images, then 1
def test_conv2d_property_matches_naive_oracle(case):
    n, cin, cout, groups, kh, kw, h, w, seed, block_values = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, cin, h, w))
    wt = rng.normal(size=(cout, cin // groups, kh, kw))
    b = rng.normal(size=cout)
    out = blocked_conv2d(block_values, Tensor(x), Tensor(wt), Tensor(b), groups=groups)
    assert out.data.shape == (n, cout, h, w)
    assert np.allclose(out.data, naive_conv2d(x, wt, b, groups=groups), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(conv_cases())
@example((3, 4, 6, 2, 3, 3, 4, 7, 5, 262144))       # grouped, batch folded end to end
@example((3, 3, 9, 1, 1, 1, 4, 6, 6, 262144))       # 1x1 with N > 1: one GEMM per image
@example((2, 1, 4, 1, 3, 3, 5, 7, 7, 262144))       # stem: Cin = 1, taps stacked in one chunk
@example((2, 1, 1, 1, 1, 11, 6, 9, 8, 262144))      # 1x11 row kernel
@example((2, 1, 1, 1, 11, 1, 9, 6, 9, 262144))      # 11x1 column kernel
@example((3, 4, 6, 2, 3, 3, 7, 9, 14, 100))         # grouped: 2-row blocks, the last of 1
@example((2, 1, 4, 1, 3, 3, 7, 5, 15, 1))           # stem, one-row blocks
@example((2, 1, 1, 1, 1, 11, 7, 9, 16, 25))         # 1x11 rows: 2-row blocks, the last of 1
@example((2, 1, 1, 1, 11, 1, 7, 6, 17, 25))         # 11x1 columns: 4- and 3-row blocks
@example((3, 4, 6, 2, 3, 3, 4, 7, 19, 700))         # grouped: blocks of 2 whole images, then 1
@example((1, 28, 2, 1, 3, 3, 4, 5, 31, 262144))     # 252 stacked rows: one stacked chunk
@example((1, 29, 2, 1, 3, 3, 4, 5, 32, 262144))     # 261 rows, over _STACK_ROWS: per-tap chunks
@example((2, 16, 16, 2, 3, 3, 5, 6, 33, 262144))    # SMOKE grouped 8-channel conv: stacked
@example((2, 16, 16, 1, 3, 3, 7, 6, 34, 4100))      # 144 stacked rows: 2-row blocks, the last of 1
@example((3, 16, 8, 2, 3, 3, 4, 5, 35, 26000))      # stacked, grouped: 2 whole images, then 1
def test_conv2d_backward_is_adjoint_of_forward(case):
    # conv2d with zero bias is bilinear, so <conv(x, W), g> = <x, dX> = <W, dW>;
    # a gradient leaking across image borders in the folded layout breaks it
    n, cin, cout, groups, kh, kw, h, w, seed, block_values = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, cin, h, w)), requires_grad=True)
    wt = Tensor(rng.normal(size=(cout, cin // groups, kh, kw)), requires_grad=True)
    g = rng.normal(size=(n, cout, h, w))
    out = blocked_conv2d(block_values, x, wt, Tensor(np.zeros(cout)), groups=groups)
    reduce_sum(mul(out, Tensor(g))).backward()
    ref = float((out.data * g).sum())
    scale = float(np.abs(out.data * g).sum())
    assert abs(float((x.data * x.grad).sum()) - ref) <= 1e-12 * scale
    assert abs(float((wt.data * wt.grad).sum()) - ref) <= 1e-12 * scale


def test_box_filter_matches_naive_window_mean():
    rng = np.random.default_rng(36)
    # windows of 1 to 11, wider than the image on one or both axes, and a batch axis
    for shape, k in (((6, 7), 1), ((6, 7), 3), ((6, 7), 5), ((4, 9), 11), ((3, 2), 7),
                     ((1, 5), 3), ((2, 3, 5, 4), 3)):
        x = rng.normal(size=shape)
        got = box_filter(x, k)
        flat = x.reshape(-1, *shape[-2:])
        want = np.stack([naive_box_mean(im, k) for im in flat]).reshape(shape)
        assert got.shape == shape
        assert np.allclose(got, want, rtol=0, atol=1e-14), (shape, k)


def test_ssim_map_matches_direct_ssim_per_pixel():
    # value: every pixel is the SSIM of its edge-replicated windows; gradient:
    # central differences of the same per-pixel oracle, summed against u
    rng = np.random.default_rng(37)
    consts = SsimConstants(window=3)
    p, q = rng.uniform(size=(2, 1, 4, 5)), rng.uniform(size=(2, 1, 4, 5))
    u = rng.normal(size=p.shape)

    def oracle(pv):
        pp, qp = (np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge") for a in (pv, q))
        return np.array([[[[direct_ssim(pp[b, 0, m:m + 3, n:n + 3], qp[b, 0, m:m + 3, n:n + 3])
                            for n in range(5)] for m in range(4)]] for b in range(2)])

    pt = Tensor(p, requires_grad=True)
    s = ssim_map(pt, Tensor(q), consts)
    assert np.allclose(s.data, oracle(p), rtol=0, atol=1e-12)
    backward(reduce_sum(mul(s, Tensor(u))))
    eps, fd = 1e-6, np.empty(p.size)
    for i in range(p.size):
        hi, lo = p.copy(), p.copy()
        hi.flat[i] += eps
        lo.flat[i] -= eps
        fd[i] = ((oracle(hi) - oracle(lo)) * u).sum() / (2 * eps)
    assert np.allclose(pt.grad.reshape(-1), fd, rtol=1e-6, atol=1e-8)
    with pytest.raises(ShapeError):
        ssim_map(pt, Tensor(q[:, :, :3]), consts)


def test_conv2d_tape_holds_no_padded_copy_of_its_input():
    # the backward re-pads the input, which it keeps for the weight gradient,
    # so beyond its output a training conv keeps no padded copy (about 1.1x
    # the input) and no tap-stacked copy (9x the input)
    rng = np.random.default_rng(8)
    for n, c, hw in ((2, 16, 32), (4, 64, 48)):
        x = Tensor(rng.normal(size=(n, c, hw, hw)), requires_grad=True)
        wt = Tensor(rng.normal(size=(c, c, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(c), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, wt, b)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes < 0.25 * x.data.nbytes, (n, c, hw)


def test_tape_frees_a_conv_output_under_relu():
    # relu's backward masks by its output, so the conv output it consumed is
    # freed once the caller drops it, and the gradients do not change
    rng = np.random.default_rng(9)
    xv, wv, u = (rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)),
                 rng.normal(size=(2, 4, 6, 6)))

    def grads(keep):
        w = Tensor(wv, requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        out = conv2d(Tensor(xv), w, b)
        ref = weakref.ref(out.data)
        r = relu(out)
        if not keep:
            del out
            assert ref() is None
        backward(reduce_sum(mul(r, Tensor(u))))
        return w.grad, b.grad

    for kept, freed in zip(grads(True), grads(False)):
        assert kept.tobytes() == freed.tobytes()


def test_conv2d_without_weight_grad_keeps_no_input():
    # only the weight gradient reads the input, so a conv with constant
    # weights keeps no reference to it on the tape
    rng = np.random.default_rng(10)
    p = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    x = mul(p, 2.0)
    ref = weakref.ref(x.data)
    out = conv2d(x, Tensor(rng.normal(size=(4, 3, 3, 3))), Tensor(np.zeros(4)))
    del x
    assert ref() is None
    g = backward(reduce_sum(out), [p])[p]
    assert g.shape == p.data.shape and np.any(g != 0)


def test_relu_backward_from_output_mask_is_bit_exact():
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 2.2e-308,
                  -2.2e-308, 1.0, -1.0, 3.5e300, -7.25, 1e-300])
    g = np.random.default_rng(11).normal(size=a.shape)
    t = Tensor(a, requires_grad=True)
    backward(reduce_sum(mul(relu(t), Tensor(g))))
    assert t.grad.tobytes() == (g * (a > 0)).tobytes()


def test_conv2d_forward_holds_no_full_size_temporary():
    # beside its output, an inference conv holds its padded input (1.03x the
    # input here), one block of the output and the block's temporary; not a
    # padded result and a full-size per-tap temporary (2x the input together)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(1, 64, 128, 128)))
    wt = Tensor(rng.normal(size=(64, 64, 3, 3)))
    b = Tensor(np.zeros(64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, wt, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.data.flags["C_CONTIGUOUS"]
    padded = 64 * 130 * 130 * 8
    assert peak - out.data.nbytes <= 1.05 * (padded + 2 * tensor._BLOCK_VALUES * 8)


def test_conv2d_1x1_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 4, 4))
    w = rng.normal(size=(2, 3, 1, 1))
    b = np.zeros(2)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    ref = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
    assert np.allclose(out.data, ref, atol=1e-12)


def test_conv2d_validation_errors():
    x = Tensor(np.zeros((1, 4, 5, 5)))
    with pytest.raises(ShapeError):   # even kernel
        conv2d(x, Tensor(np.zeros((2, 4, 2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):   # groups do not divide Cin
        conv2d(x, Tensor(np.zeros((3, 1, 3, 3))), Tensor(np.zeros(3)), groups=3)
    with pytest.raises(ShapeError):   # channel mismatch
        conv2d(x, Tensor(np.zeros((2, 3, 3, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):   # bias length
        conv2d(x, Tensor(np.zeros((2, 4, 3, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):   # rank
        conv2d(Tensor(np.zeros((5, 5))), Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)))


def test_conv2d_gradients_finite_difference():
    rng = np.random.default_rng(3)
    # (N, Cin, Cout, groups, kh, kw, H, W): depthwise-like, 1xk window, grouped, 1x1 batch
    for n, cin, cout, groups, kh, kw, h, w in ((1, 2, 4, 2, 3, 3, 5, 5),
                                               (2, 1, 1, 1, 1, 5, 4, 7),
                                               (2, 4, 6, 2, 3, 3, 4, 6),
                                               (3, 3, 5, 1, 1, 1, 4, 5)):
        x = Tensor(rng.normal(size=(n, cin, h, w)), requires_grad=True, name="x")
        wt = Tensor(rng.normal(size=(cout, cin // groups, kh, kw)), requires_grad=True, name="w")
        b = Tensor(rng.normal(size=cout), requires_grad=True, name="b")
        u = Tensor(rng.normal(size=(n, cout, h, w)))   # projection, makes grads dense

        def f(params):
            return reduce_sum(mul(conv2d(params[0], params[1], params[2], groups=groups), u))

        report = grad_check(f, [x, wt, b], coords_per_param=12)
        assert report.passed, ((kh, kw, groups), report.per_param)


def test_backward_driver_returns_zero_for_unused_param():
    a = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    grads = backward(reduce_sum(mul(a, a)), [a, unused])
    assert np.array_equal(grads[a], [2.0])
    assert np.array_equal(grads[unused], [0.0, 0.0])


def test_backward_bit_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 6, 6))
    wv = rng.normal(size=(4, 2, 3, 3))
    bv = rng.normal(size=4)

    def run():
        w = Tensor(wv.copy(), requires_grad=True)
        b = Tensor(bv.copy(), requires_grad=True)
        h = relu(conv2d(Tensor(x), w, b))
        loss = reduce_mean(mul(h, h))
        loss.backward()
        return loss.item(), w.grad.copy(), b.grad.copy()

    l1, gw1, gb1 = run()
    l2, gw2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(gw1, gw2) and np.array_equal(gb1, gb2)


def test_accumulate_grad_does_not_mutate_incoming():
    t = Tensor(np.zeros(3), requires_grad=True)
    g = np.ones(3)
    accumulate_grad(t, g)
    accumulate_grad(t, g)
    assert np.array_equal(g, np.ones(3))        # caller's buffer untouched
    assert np.array_equal(t.grad, 2 * np.ones(3))
    c = Tensor(np.zeros(3))
    accumulate_grad(c, g)
    assert c.grad is None


def test_accumulate_grad_takes_a_node():
    t = Tensor(np.zeros(2), requires_grad=True)
    accumulate_grad(t._node, np.ones(2))
    accumulate_grad(t, np.ones(2))
    assert np.array_equal(t.grad, [2.0, 2.0])


def test_make_op_extension_and_registry():
    a = Tensor(np.array([2.0]), requires_grad=True)

    def bw(g):
        accumulate_grad(a, g * 3.0 * a.data ** 2)

    cubed = make_op(a.data ** 3, (a,), bw, "unit-test-op")
    reduce_sum(cubed).backward()
    assert np.allclose(a.grad, [12.0])
    # the op list names the library's own ops only; an op built outside joins none
    assert cubed._op == "unit-test-op" and "unit-test-op" not in registered_ops()


def test_package_import_loads_no_module_and_op_list_is_constant():
    # in a fresh interpreter: the package loads none of its modules, and the
    # tensor module alone lists every op, local_conv included, as one tuple
    code = ("import sys, structkpn\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('structkpn.'))\n"
            "print(loaded())\n"
            "from structkpn.tensor import registered_ops\n"
            "print(loaded())\n"
            "print(repr(registered_ops()))\n")
    src = str(Path(tensor.__file__).resolve().parents[1])
    lines = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[:2] == ["[]", "['structkpn.tensor']"]
    ops = ast.literal_eval(lines[2])
    assert type(ops) is tuple and len(ops) == len(set(ops)) == 13
    assert set(ops) == {"add", "sub", "mul", "div", "neg", "abs", "relu", "softmax",
                        "reduce_mean", "reduce_sum", "conv2d", "local_conv", "ssim_map"}


def test_package_imports_sit_at_module_top_and_form_a_dag():
    # an import hidden in a function body can hide a cycle between modules
    pkg = Path(tensor.__file__).resolve().parent
    graph = {}
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level > 0):
                continue
            assert node in tree.body, f"{path.name}:{node.lineno}: package import below module top"
            deps.update([node.module] if node.module else [a.name for a in node.names])
    assert set().union(*graph.values()) <= set(graph)
    graphlib.TopologicalSorter(graph).prepare()   # raises CycleError on a cycle


def test_grad_check_rejects_nondeterministic_function():
    rng = np.random.default_rng(5)
    p = Tensor(np.ones(2), requires_grad=True)

    def noisy(params):
        return reduce_sum(mul(params[0], Tensor(rng.normal(size=2))))

    with pytest.raises(ValueError):
        grad_check(noisy, [p])


def test_grad_check_flags_wrong_backward():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def broken(params):
        a = params[0]

        def bw(g):
            accumulate_grad(a, g * 0.5)   # wrong: claims d(x)/dx = 0.5

        return reduce_sum(make_op(a.data.copy(), (a,), bw, "broken"))

    report = grad_check(broken, [p])
    assert not report.passed
    assert report.max_rel_err > 0.1
