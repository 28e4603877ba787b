"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are stored as contiguous float64 numpy arrays (N,C,H,W order for image
batches). Every operation that involves a gradient-requiring input records a
tape node; ``Tensor.backward()`` replays the tape in reverse topological order
with a fixed accumulation order, so repeated runs on identical inputs are
bit-identical at a fixed BLAS thread count.

The tape is made of ``_Node`` objects, not of Tensors: a node holds the grad
slot, the parents' nodes and the backward closure, never a value. A closure
keeps alive exactly what it captures, so each built-in op captures the nodes
it sends gradients to and only the arrays its backward reads: ``relu`` its
output, ``mul`` and ``div`` their operands, ``conv2d`` its input only when the
weights need a gradient, and ``add``, ``sub`` and the reductions nothing. An
op output that no backward reads is freed as soon as its caller drops it.

The sweep frees gradients the same way: an op node remembers its output
Tensor by a weak reference, and once the node's backward has passed its
gradient on, the node drops it unless the caller still holds that Tensor.
After ``backward``, leaves and held op outputs keep ``.grad`` and the
interior gradients of dropped Tensors are gone, as in PyTorch's autograd,
which keeps no non-leaf grad unless asked.

``conv2d`` pads its input once into a channel-major buffer holding the batch
end to end, so each kernel tap is one strided slice of it, and works over
cache-sized blocks written straight into the output. A wide conv accumulates
one GEMM per tap (or small chunk of taps) with no column buffer; a narrow one
copies a block's taps into one reused buffer and runs one GEMM per block, and
gathers its input gradient the same way. Its backward keeps no padded copy:
it re-pads the input, which it keeps only for the weight gradient. The
forward's core, ``_conv_forward``, takes a buffer its caller has padded, so
``kpn.denoise_image`` runs the same GEMMs on row bands that bring their own
halo rows.

``local_conv`` applies a per-pixel filter field, the one op the kernel
prediction network adds to a plain CNN; its window sum ``_filter_window`` is
shared with ``kpn.denoise_image``'s bands. ``ssim_map`` is the per-pixel SSIM
of the structure-aware loss as one op: its window means come from
``box_filter``, a numpy box filter that ``gradstats`` also uses, and its
backward is the closed form through the box's adjoint. Every differentiable
op lives in this module, so ``registered_ops()`` is a constant tuple of their
names, complete once this module is imported.
"""

import math
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradCheckReport",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "abs_val",
    "relu",
    "softmax_vec",
    "reduce_mean",
    "reduce_sum",
    "conv2d",
    "local_conv",
    "box_filter",
    "ssim_from_moments",
    "ssim_map",
    "backward",
    "grad_check",
    "make_op",
    "accumulate_grad",
    "registered_ops",
]


class ShapeError(ValueError):
    """Shape/contract violation."""


def _require_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


class _Node:
    """A tensor's tape entry: its grad slot and edges, without its value.

    ``parents`` are the parents' nodes and ``backward_fn(grad_out)`` sends
    the gradient to them; the graph holds nodes only, so a value lives on the
    tape only if some backward closure captured it. ``owner`` is a weak
    reference to the op output, set by ``make_op``; a node built elsewhere
    has none and keeps its grad.
    """

    __slots__ = ("grad", "requires_grad", "parents", "backward_fn", "op", "owner")

    def __init__(self, requires_grad=False, parents=(), backward_fn=None, op="leaf"):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op
        self.owner = None


def _node_field(field, doc):
    return property(lambda self: getattr(self._node, field),
                    lambda self, value: setattr(self._node, field, value), doc=doc)


class Tensor:
    """A float64 array plus its tape node.

    Leaves created with ``requires_grad=True`` are trainable parameters;
    everything else is treated as a constant and recorded on the tape only
    when a gradient has to flow through it. Values are immutable once a
    graph has been built on top of them. ``grad``, ``requires_grad`` and the
    tape fields ``_parents`` (the parents' nodes), ``_backward_fn`` and
    ``_op`` read the node.
    """

    __slots__ = ("data", "name", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.name = name
        self._node = _Node(requires_grad)

    grad = _node_field("grad", "Gradient filled by the last backward sweep, or None; an op "
                       "output keeps it only if held when the sweep passed it.")
    requires_grad = _node_field("requires_grad", "Whether a gradient flows into this tensor.")
    _backward_fn = _node_field("backward_fn", "The op's backward closure (None on a leaf).")
    _parents = property(lambda self: self._node.parents, doc="The parents' tape nodes.")
    _op = property(lambda self: self._node.op, doc="The name of the op that made the tensor.")

    def item(self):
        return float(self.data)

    def __repr__(self):
        head = f"Tensor(shape={self.data.shape}, op={self._op}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    # -- tape --------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar; fills ``.grad`` on the graph.

        Leaves and the op outputs the caller still holds keep ``.grad``; an
        op output that is gone loses its gradient as soon as its backward has
        run, so the sweep holds only the gradients still to be passed on.
        """
        if self.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self._node)
        for node in order:
            node.grad = None
        self._node.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)
                if node.owner is not None and node.owner() is None:
                    node.grad = None


def _toposort(root):
    """Post-order DFS over tape nodes; each appears exactly once, parents first."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def accumulate_grad(t, g):
    """Add ``g`` into the grad of ``t``, a Tensor or its node (no-op for constants).

    Never mutates ``g``. A backward closure that passes nodes keeps no value
    alive; one that captures its parent Tensors keeps their data alive for as
    long as the graph lives.
    """
    node = t._node if isinstance(t, Tensor) else t
    if node.requires_grad:
        node.grad = g if node.grad is None else node.grad + g


# Every differentiable op of the library, by the name its tape nodes carry, so
# gradient-audit suites can enumerate full coverage.
_OP_REGISTRY = (
    "add", "sub", "mul", "div", "neg", "abs", "relu",
    "softmax", "reduce_mean", "reduce_sum", "conv2d", "local_conv", "ssim_map",
)


def registered_ops():
    return _OP_REGISTRY


def make_op(data, parents, backward_fn, op):
    """Create an op-output tensor; every op of the library is built with it.

    ``backward_fn(grad_out)`` must call :func:`accumulate_grad` on each
    gradient-requiring parent and must not mutate ``grad_out``. The tape node
    is dropped entirely when no parent requires a gradient. The tape keeps the
    closure, and with it whatever the closure captures, until the graph dies:
    capture the parents' ``_node`` and only the arrays the backward reads. The
    node refers to ``out`` weakly, so the sweep can drop its gradient once
    ``out`` is gone. An op built outside this module does not join
    ``registered_ops()``, which lists the library's own ops only.
    """
    out = Tensor(data)
    nodes = tuple(p._node for p in parents)
    if any(n.requires_grad for n in nodes):
        out._node = _Node(True, nodes, backward_fn, op)
        out._node.owner = weakref.ref(out)
    else:
        out._node.op = op + "(const)"
    return out


# -- elementwise ops --------------------------------------------------------

def add(a, b):
    an = a._node
    if not isinstance(b, Tensor):
        shift = float(b)

        def bwd(g):
            accumulate_grad(an, g)

        return make_op(a.data + shift, (a,), bwd, "add")

    _require_same_shape("add", a, b)
    bn = b._node

    def bwd(g):
        accumulate_grad(an, g)
        accumulate_grad(bn, g)

    return make_op(a.data + b.data, (a, b), bwd, "add")


def sub(a, b):
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    _require_same_shape("sub", a, b)
    an, bn = a._node, b._node

    def bwd(g):
        accumulate_grad(an, g)
        accumulate_grad(bn, -g)

    return make_op(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b):
    an = a._node
    if not isinstance(b, Tensor):
        scale = float(b)

        def bwd(g):
            accumulate_grad(an, g * scale)

        return make_op(a.data * scale, (a,), bwd, "mul")

    _require_same_shape("mul", a, b)
    ad, bd, bn = a.data, b.data, b._node

    def bwd(g):
        accumulate_grad(an, g * bd)
        accumulate_grad(bn, g * ad)

    return make_op(ad * bd, (a, b), bwd, "mul")


def div(a, b):
    _require_same_shape("div", a, b)
    ad, bd, an, bn = a.data, b.data, a._node, b._node
    out_data = ad / bd

    def bwd(g):
        accumulate_grad(an, g / bd)
        accumulate_grad(bn, -g * ad / (bd * bd))

    return make_op(out_data, (a, b), bwd, "div")


def neg(a):
    an = a._node

    def bwd(g):
        accumulate_grad(an, -g)

    return make_op(-a.data, (a,), bwd, "neg")


def abs_val(a):
    """Elementwise |x|; the subgradient at 0 is fixed to 0."""
    ad, an = a.data, a._node

    def bwd(g):
        accumulate_grad(an, g * np.sign(ad))

    return make_op(np.abs(ad), (a,), bwd, "abs")


def relu(a):
    """Elementwise max(0, x); the gradient at exactly 0 is fixed to 0.

    The backward masks by the output: max(x, 0) > 0 exactly where x > 0,
    signed zeros, NaN and infinities included, so the input need not live.
    """
    out_data = np.maximum(a.data, 0.0)
    an = a._node

    def bwd(g):
        accumulate_grad(an, g * (out_data > 0))

    return make_op(out_data, (a,), bwd, "relu")


def softmax_vec(v, axis=-1):
    """Max-shifted softmax along ``axis``; output sums to 1 there."""
    shifted = v.data - v.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    vn = v._node

    def bwd(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate_grad(vn, out_data * (g - inner))

    return make_op(out_data, (v,), bwd, "softmax")


# -- reductions --------------------------------------------------------------

def reduce_mean(a):
    if a.data.size == 0:
        raise ShapeError("reduce_mean of an empty tensor")
    n, shape, an = a.data.size, a.data.shape, a._node

    def bwd(g):
        accumulate_grad(an, np.broadcast_to(g / n, shape))

    return make_op(np.asarray(a.data.mean()), (a,), bwd, "reduce_mean")


def reduce_sum(a):
    shape, an = a.data.shape, a._node

    def bwd(g):
        accumulate_grad(an, np.broadcast_to(g, shape))

    return make_op(np.asarray(a.data.sum()), (a,), bwd, "reduce_sum")


# -- convolution --------------------------------------------------------------

def _collapse_replication(gpad, ph, pw):
    """Fold the gradient of a replication-padded array back onto the source.

    Every padded cell reads the nearest in-bounds pixel, so its gradient
    accumulates there; the clip map is separable, rows then columns. The fold
    runs in place, so gpad must be the caller's own buffer, and the result is
    the view of its source region.
    """
    h = gpad.shape[2] - 2 * ph
    w = gpad.shape[3] - 2 * pw
    if ph > 0:
        gpad[:, :, ph, :] += gpad[:, :, :ph, :].sum(axis=2)
        gpad[:, :, ph + h - 1, :] += gpad[:, :, ph + h:, :].sum(axis=2)
    rows = gpad[:, :, ph:ph + h, :]
    if pw > 0:
        rows[:, :, :, pw] += rows[:, :, :, :pw].sum(axis=3)
        rows[:, :, :, pw + w - 1] += rows[:, :, :, pw + w:].sum(axis=3)
    return rows[:, :, :, pw:pw + w]


# Adding a tap's GEMM into the output costs a pass over its Cout_g rows, and
# stacking a tap into a chunk one over its Cin_g rows; a GEMM with a tiny
# inner size (Cin_g = 1) is also slow. So a chunk stacks taps until its inner
# size reaches Cout_g and at least this many rows.
_MIN_GEMM_K = 8

# A narrow conv, whose taps stacked (taps x Cin_g rows) make at most this many
# rows, runs its forward as one GEMM per block over all of them: one copy of
# the block's taps beats a GEMM and an add per tap. At 64 channels (576 rows,
# or 288 in 2 groups) the per-tap chunks are faster.
_STACK_ROWS = 256

# OpenBLAS computes a GEMM's columns in groups (of 8 on AVX-512), and at an
# inner size of 16 or more the columns of a short last group round differently
# from full ones, so a column's bits depend on where its block ends. A stacked
# GEMM of that inner size runs on a whole number of this many columns instead,
# which makes the row bands of kpn.denoise_image match the whole-image forward
# bit for bit. Narrower stacks, such as the stem's 9 taps, keep their exact
# width and their bits.
_GEMM_COLS = 16

# The forward pass accumulates its tap GEMMs over blocks of about this many
# output values (Cout x padded-pitch columns), 2 MB a block. Every tap re-reads
# the block and its one temporary, so they must stay in cache rather than
# stream through memory. Sizing by values, not columns, lets a small conv put
# a whole batch in one block instead of making many tiny GEMM calls. A block
# of stacked taps is sized by twice their rows instead, when that is more than
# Cout: their buffer (1 MB at most) then stays in cache beside the output.
_BLOCK_VALUES = 262144


def _tap_chunks(wdata, groups, wp):
    """The flat shifts dy*wp + dx of a kernel's taps, grouped into conv2d's chunks.

    A chunk is (its columns of ``_conv_taps``' weight matrix, its shifts).
    """
    cout, cin_g, kh, kw = wdata.shape
    taps = kh * kw
    shifts = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    step = -(-max(cout // groups, _MIN_GEMM_K) // cin_g)    # taps per chunk
    return [(slice(t * cin_g, min(t + step, taps) * cin_g), shifts[t:t + step])
            for t in range(0, taps, step)]


def _conv_taps(wdata, groups, wp):
    """conv2d's weight matrix and forward tap chunks for a kernel over rows of pitch wp.

    Column t*Cin_g + c of the (groups, Cout_g, taps*Cin_g) matrix holds the
    weight of input channel c at tap t, the row order of ``_tap_rows``. A
    narrow conv (at most ``_STACK_ROWS`` columns) has one chunk of all its
    taps; a wider one has ``_tap_chunks``.
    """
    cout, cin_g, kh, kw = wdata.shape
    chunks = _tap_chunks(wdata, groups, wp)
    if kh * kw * cin_g <= _STACK_ROWS:
        chunks = [(slice(0, kh * kw * cin_g), [s for _, ss in chunks for s in ss])]
    wmat = wdata.reshape(groups, cout // groups, cin_g, kh * kw).swapaxes(2, 3) \
        .reshape(groups, cout // groups, kh * kw * cin_g)
    return wmat, chunks


def _tap_rows(xf, ss, base, length, buf=None):
    """The GEMM operand of a chunk's taps: flat slices of xf, stacked when several.

    Stacked taps are copied into the front of ``buf`` when one is given.
    """
    if len(ss) == 1:
        return xf[..., base + ss[0]:base + ss[0] + length]
    groups, cin_g = xf.shape[:2]
    shape = (groups, len(ss), cin_g, length)
    rows = np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)
    for j, s in enumerate(ss):
        tap = xf[..., base + s:base + s + length]
        rows[:, j, :, :tap.shape[-1]] = tap      # columns past xf's end are left as they are
    return rows.reshape(groups, -1, length)


def _conv_forward(xf, wmat, chunks, bias, out):
    """conv2d's forward over a padded channel-major buffer, written into ``out``.

    xf is (groups, Cin/groups, N, Hp, Wp): N inputs, each already padded by
    kh//2 rows and kw//2 columns; out is (N, Cout, H, W). The caller pads, so
    a band of rows can bring its real neighbours as its top and bottom halo.
    The output accumulates one GEMM per chunk of taps over blocks of about
    ``_BLOCK_VALUES`` output values of whole padded rows (a band of one image,
    or several whole images); each block gets the bias and its cropped rows
    are copied into out. A chunk of several taps is copied into one buffer,
    allocated once per call. A 1x1 kernel runs one GEMM per image straight
    into out. Columns between images are computed and cropped away.
    """
    groups, cin_g, n, hp, wp = xf.shape
    _, cout, h, w = out.shape
    cout_g = cout // groups
    xf = xf.reshape(groups, cin_g, -1)
    if hp == h and wp == w:
        # a 1x1 kernel: image b's output is one contiguous (Cout, H*W) block
        for b in range(n):
            np.matmul(wmat, _tap_rows(xf, chunks[0][1], b * h * w, h * w),
                      out=out[b].reshape(groups, cout_g, h * w))
        out += bias.reshape(cout, 1, 1)
        return
    # A block is whole padded rows: a band of rows of one image, or as many
    # whole padded images as fit; its last row stops at column w. The
    # temporary has the block's row pitch too, since numpy adds arrays of
    # equal strides several times faster than arrays of unequal strides.
    # Stacked taps are copied into one buffer of the block's width, and their
    # GEMM runs on a whole number of _GEMM_COLS columns, past the block's end.
    stacked = groups * chunks[0][0].stop if len(chunks[0][1]) > 1 else 0
    align = _GEMM_COLS if stacked and chunks[0][0].stop >= _GEMM_COLS else 1
    rows = max(cout, 2 * stacked)
    per = _BLOCK_VALUES // (rows * hp * wp)            # images per block
    if per > 1:
        band, pitch = h, hp
    else:
        per = 1
        band = pitch = -(-h // -(-rows * h * wp // _BLOCK_VALUES))   # split evenly
    widest = -(-min(per, n) * pitch * wp // align) * align
    acc_buf = np.empty(cout * widest)
    tmp_buf = np.empty_like(acc_buf) if len(chunks) > 1 else None
    tap_buf = np.zeros(stacked * widest) if stacked else None
    for b in range(0, n, per):
        nb = min(per, n - b)
        for i in range(0, h, band):
            nr = min(band, h - i)
            base = (b * hp + i) * wp
            length = -(-(((nb - 1) * pitch + nr) * wp - (wp - w)) // align) * align
            full = cout * -(-nb * pitch * wp // align) * align
            acc = acc_buf[:full].reshape(groups, cout_g, -1)[..., :length]
            if tmp_buf is not None:
                tmp = tmp_buf[:full].reshape(groups, cout_g, -1)[..., :length]
            for ks, ss in chunks:
                taps = _tap_rows(xf, ss, base, length, tap_buf)
                if ks.start == 0:
                    np.matmul(wmat[..., ks], taps, out=acc)
                else:
                    np.matmul(wmat[..., ks], taps, out=tmp)
                    acc += tmp
            acc += bias.reshape(groups, cout_g, 1)
            np.copyto(out[b:b + nb, :, i:i + nr],
                      acc_buf[:full].reshape(cout, -1)[:, :nb * pitch * wp]
                      .reshape(cout, nb, pitch, wp)[:, :, :nr, :w].transpose(1, 0, 2, 3))


def conv2d(x, weights, bias, groups=1):
    """Grouped 2-D cross-correlation with same-size edge-replication padding.

    x: (N, Cin, H, W); weights: (Cout, Cin/groups, kh, kw) with kh, kw odd;
    bias: (Cout,). Output: (N, Cout, H, W). Differentiable w.r.t. all three.

    Channel-major, batch-folded layout: the input is edge-padded once into
    xf = (groups, Cin/groups, N*Hp*Wp), so the N padded images sit end to end
    and output pixel (b, i, j) is flat index (b*Hp + i)*Wp + j. Tap (dy, dx) is
    then the strided slice of xf starting at dy*Wp + dx, for the whole batch at
    once. The forward, ``_conv_forward``, accumulates one GEMM per chunk of
    taps, block by block into the output: all taps in one chunk when they
    stack to at most ``_STACK_ROWS`` rows (the 16- and 8-channel convs and
    every stem), else one tap (a view of xf) or a small stack of taps when
    Cin/groups is below Cout/groups or ``_MIN_GEMM_K``. The forward drops xf
    once the output is written. The backward runs over the whole batch and
    rebuilds xf from x, with the same pad, only for the weight gradient, one
    GEMM per chunk of ``_tap_chunks``, so the tape keeps x's data only when
    the weights need a gradient. The input gradient needs only the output
    gradient and the weights: a narrow conv gathers it, one stacked GEMM per
    block of the output gradient's taps, and a wide one scatters it, adding
    each chunk's GEMM into the columns its taps read. Columns between images
    get zero gradient.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be (N,C,H,W), got rank {x.data.ndim}")
    if weights.data.ndim != 4:
        raise ShapeError(f"conv2d: weights must be (Cout,Cin/groups,kh,kw), got rank {weights.data.ndim}")
    n, cin, h, w = x.data.shape
    cout, cin_g, kh, kw = weights.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if groups < 1 or cin % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} does not divide Cin={cin}")
    if cout % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} does not divide Cout={cout}")
    if cin_g * groups != cin:
        raise ShapeError(
            f"conv2d: weights expect Cin {cin_g * groups} (axis 1 = {cin_g} x {groups} groups),"
            f" input has Cin {cin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({cout},)")

    cout_g = cout // groups
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    m = n * hp * wp
    span = m - (hp - h) * wp - (wp - w)          # flat index of the last output pixel + 1

    def fold(xd):
        xt = xd.transpose(1, 0, 2, 3)            # a 1x1 kernel at N = 1 reshapes it without a copy
        return (np.pad(xt, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="edge") if ph or pw
                else xt).reshape(groups, cin_g, m)

    xf = fold(x.data)
    wmat, fwd_chunks = _conv_taps(weights.data, groups, wp)
    out_data = np.empty((n, cout, h, w))
    _conv_forward(xf.reshape(groups, cin_g, n, hp, wp), wmat, fwd_chunks, bias.data, out_data)
    del xf                                       # the backward re-pads x
    xn, wn, bn, wshape = x._node, weights._node, bias._node, weights.data.shape
    xd = x.data if wn.requires_grad else None    # read only by the weight gradient

    chunks = _tap_chunks(weights.data, groups, wp)
    shifts = [s for _, ss in chunks for s in ss]
    # A narrow conv gathers its input gradient from gf zero-extended in front by
    # the largest shift; a wide one, or a 1x1 (no shift), scatters it.
    top = shifts[-1] if kh * kw * cout_g <= _STACK_ROWS else 0

    def bwd(g):
        if bn.requires_grad:
            accumulate_grad(bn, g.sum(axis=(0, 2, 3)))
        gfe = np.zeros((cout, top + m))
        gfe[:, top:].reshape(cout, n, hp, wp)[:, :, :h, :w] = g.transpose(1, 0, 2, 3)
        gfe = gfe.reshape(groups, cout_g, top + m)
        gf = gfe[..., top:top + span]
        if wn.requires_grad:
            xf = fold(xd)
            dw = np.empty_like(wmat)
            for ks, ss in chunks:
                np.matmul(gf, _tap_rows(xf, ss, 0, span).swapaxes(-1, -2), out=dw[..., ks])
            del xf
            accumulate_grad(wn, dw.reshape(groups, cout_g, kh * kw, cin_g).swapaxes(2, 3)
                            .reshape(wshape))
        if xn.requires_grad:
            if top:
                # input column k gets W_t^T gf[k - s_t] from every tap t: the forward's
                # stacked GEMM per block, over gf's taps and the transposed weights
                wt = wmat.reshape(groups, cout_g, kh * kw, cin_g).transpose(0, 3, 2, 1) \
                    .reshape(groups, cin_g, -1)
                back = [top - s for s in shifts]
                cols = max(1, _BLOCK_VALUES // max(cin, 2 * groups * wt.shape[-1]))
                buf = np.empty(groups * wt.shape[-1] * cols)
                gxf = np.empty((groups, cin_g, m))
                for k in range(0, m, cols):
                    np.matmul(wt, _tap_rows(gfe, back, k, min(cols, m - k), buf),
                              out=gxf[..., k:k + cols])
            else:
                # each chunk's GEMM is added into the columns its taps read
                gxf = np.zeros((groups, cin_g, m))
                dx = np.empty((groups, chunks[0][0].stop, span))
                for ks, ss in chunks:
                    d = dx[:, :ks.stop - ks.start]
                    np.matmul(wmat[..., ks].swapaxes(-1, -2), gf, out=d)
                    for j, s in enumerate(ss):
                        gxf[..., s:s + span] += d[:, j * cin_g:(j + 1) * cin_g]
            gxf = gxf.reshape(cin, n, hp, wp).transpose(1, 0, 2, 3)
            accumulate_grad(xn, _collapse_replication(gxf, ph, pw))

    return make_op(out_data, (x, weights, bias), bwd, "conv2d")


# -- per-pixel filtering ------------------------------------------------------

def _filter_geometry(k2):
    k = math.isqrt(k2)
    if k * k != k2 or k % 2 == 0:
        raise ShapeError(f"local_conv: {k2} filter channels is not an odd square")
    return k, k // 2


def _tap(a, c, k, h, w):
    """The (h,w) window of an r-padded array that channel c = (s+r)k+(t+r) reads at (m-s, n-t)."""
    r = k // 2
    s, t = c // k - r, c % k - r
    return a[:, :, r - s:r - s + h, r - t:r - t + w]


def _filter_window(xp, vd, k):
    """sum_c tap(xp, c) * vd[:, c] for (N,k^2,h,w) filters over a window xp padded by r."""
    n, _, h, w = vd.shape
    out = np.zeros((n, 1, h, w))
    for c in range(k * k):
        out += _tap(xp, c, k, h, w) * vd[:, c:c + 1]
    return out


def local_conv(x, v):
    """Apply per-pixel filters: out[m,n] = sum_{s,t} x[m-s, n-t] * v[(s+r)k+(t+r)].

    x is (N,1,H,W), v is (N,k^2,H,W) with k odd; out-of-range taps replicate
    the nearest edge pixel, so the output is (N,1,H,W). Every tap reads a
    window of x edge-padded once by r; the accumulation runs in fixed channel
    order, making results bit-reproducible. The tape keeps the padded x, and
    the filter field only when x needs a gradient.
    """
    xd, vd = x.data, v.data
    if xd.ndim != 4 or xd.shape[1] != 1:
        raise ShapeError(f"local_conv: input must be (N,1,H,W), got {xd.shape}")
    if vd.ndim != 4:
        raise ShapeError(f"local_conv: filters must be (N,k^2,H,W), got {vd.shape}")
    if vd.shape[0] != xd.shape[0] or vd.shape[2:] != xd.shape[2:]:
        raise ShapeError(
            f"local_conv: filter field {vd.shape} does not match input {xd.shape} "
            "on batch/spatial axes")
    k, r = _filter_geometry(vd.shape[1])
    h, w = xd.shape[2:]
    xp = np.pad(xd, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    xn, vn, vshape = x._node, v._node, vd.shape
    vkept = vd if xn.requires_grad else None     # read only by the input gradient

    def bw(g):
        if vn.requires_grad:
            gv = np.empty(vshape)
            for c in range(k * k):
                gv[:, c] = g[:, 0] * _tap(xp, c, k, h, w)[:, 0]
            accumulate_grad(vn, gv)
        if xn.requires_grad:
            gxp = np.zeros_like(xp)
            for c in range(k * k):
                _tap(gxp, c, k, h, w)[...] += g * vkept[:, c:c + 1]
            accumulate_grad(xn, _collapse_replication(gxp, r, r))

    return make_op(_filter_window(xp, vd, k), (x, v), bw, "local_conv")


# -- windowed statistics ------------------------------------------------------

def box_filter(x, k):
    """Mean of every k x k window over the last two axes, edge-replicated past the borders.

    Separable shifted adds in a fixed order over one edge-padded copy: the k
    column shifts left to right, then the k row shifts top to bottom, then one
    scaling by 1/k^2. A plain numpy filter, not an op; ``ssim_map`` is its
    differentiable use.
    """
    r = k // 2
    h, w = x.shape[-2:]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(r, r), (r, r)], mode="edge")
    rows = xp[..., :w].copy()
    for d in range(1, k):
        rows += xp[..., d:d + w]
    out = rows[..., :h, :].copy()
    for d in range(1, k):
        out += rows[..., d:d + h, :]
    out *= 1.0 / (k * k)
    return out


def _box_adjoint(g, k):
    """The adjoint of ``box_filter``: the gradient of its input given its output's g."""
    r = k // 2
    h, w = g.shape[-2:]
    rows = np.zeros(g.shape[:-2] + (h + 2 * r, w))
    for d in range(k):
        rows[..., d:d + h, :] += g
    gp = np.zeros(g.shape[:-2] + (h + 2 * r, w + 2 * r))
    for d in range(k):
        gp[..., d:d + w] += rows
    gp *= 1.0 / (k * k)
    return _collapse_replication(gp.reshape(-1, 1, h + 2 * r, w + 2 * r), r, r).reshape(g.shape)


def ssim_from_moments(mp, mq, mpp, mqq, mpq, consts):
    """SSIM from window means (mp, mq) and raw second moments E[p^2], E[q^2], E[pq].

    ``consts`` gives the stabilizers c1 and c2. Written with operators only,
    so it maps ndarrays to ndarrays and Tensors to a differentiable Tensor.
    """
    sp = mpp - mp * mp
    sq = mqq - mq * mq
    spq = mpq - mp * mq
    num = (2.0 * mp * mq + consts.c1) * (2.0 * spq + consts.c2)
    den = (mp * mp + mq * mq + consts.c1) * (sp + sq + consts.c2)
    return num / den


def ssim_map(p, q, consts):
    """Per-pixel SSIM of two (N,1,H,W) Tensors over ``consts.window``-wide box windows.

    Windows are edge-replicated past the borders. The forward feeds the five
    ``box_filter`` means to ``ssim_from_moments``. With S = A1*A2 / (B1*B2),
    A1 = 2 mp mq + c1, A2 = 2 cov + c2, B1 = mp^2 + mq^2 + c1 and
    B2 = var p + var q + c2, the backward is the closed form

        dS/dp = B^T(G dS/dmp) + 2p B^T(G dS/dE[p^2]) + q B^T(G dS/dE[pq])

    with B^T the box's adjoint, as in Zhao et al., "Loss Functions for Image
    Restoration with Neural Networks" (arXiv 1511.08861); q's gradient is the
    same with p and q swapped. The partials divide only by B1*B2 and B2,
    which the stabilizers keep away from zero.
    """
    _require_same_shape("ssim_map", p, q)
    if p.data.ndim != 4 or p.data.shape[1] != 1:
        raise ShapeError(f"ssim_map: expected (N,1,H,W), got {p.data.shape}")
    k, c1, c2 = consts.window, consts.c1, consts.c2
    pd, qd, pn, qn = p.data, q.data, p._node, q._node
    mp, mq, mpp, mqq, mpq = box_filter(np.stack([pd, qd, pd * pd, qd * qd, pd * qd]), k)
    s = ssim_from_moments(mp, mq, mpp, mqq, mpq, consts)

    def bwd(g):
        a1 = 2.0 * mp * mq + c1
        a2 = 2.0 * (mpq - mp * mq) + c2
        b1 = mp * mp + mq * mq + c1
        b2 = (mpp - mp * mp) + (mqq - mq * mq) + c2
        gden = g / (b1 * b2)
        common = [-g * s / b2, 2.0 * a1 * gden]            # G dS/dE[x^2], G dS/dE[xy]
        for xn, xd, od, mx, mo in ((pn, pd, qd, mp, mq), (qn, qd, pd, mq, mp)):
            if xn.requires_grad:
                gm = 2.0 * (mo * (a2 - a1) - mx * s * (b2 - b1)) * gden
                bm, bxx, bxy = _box_adjoint(np.stack([gm] + common), k)
                accumulate_grad(xn, bm + 2.0 * xd * bxx + od * bxy)

    return make_op(s, (p, q), bwd, "ssim_map")


# -- driver-level helpers -----------------------------------------------------

def backward(loss, params=None):
    """Run the reverse sweep; return ``{param: gradient}`` for the leaves.

    Parameters absent from the tape get zero gradients. With ``params=None``
    only the sweep runs: gradients stay on the leaves and on the op outputs
    the caller still holds.
    """
    loss.backward()
    if params is None:
        return None
    out = {}
    for p in params:
        out[p] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out


class GradCheckReport:
    """Outcome of a finite-difference audit of ``backward``."""

    def __init__(self, max_rel_err, tol, per_param):
        self.max_rel_err = max_rel_err
        self.tol = tol
        self.per_param = per_param
        self.passed = max_rel_err < tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, tol={self.tol:g})"


def grad_check(f, params, eps=1e-5, tol=1e-4, coords_per_param=None):
    """Compare reverse-mode gradients of ``f(params)`` with central differences.

    ``f`` must be deterministic (verified by evaluating twice) and return a
    scalar Tensor. ``coords_per_param`` caps the audited coordinates per
    parameter with a deterministic evenly-spaced subsample; None checks all.
    The relative error is |ad - fd| / max(|ad|, |fd|, 1e-3), so true-zero
    gradients are not swamped by finite-difference noise.
    """
    probe_a = float(f(params).data)
    probe_b = float(f(params).data)
    if probe_a != probe_b or not np.isfinite(probe_a):
        raise ValueError(
            f"grad_check: f is not deterministic ({probe_a!r} vs {probe_b!r})")

    grads = backward(f(params), params)

    max_err = 0.0
    per_param = {}
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        size = flat.size
        if coords_per_param is not None and size > coords_per_param:
            coords = np.unique(np.linspace(0, size - 1, coords_per_param).astype(np.intp))
        else:
            coords = np.arange(size, dtype=np.intp)
        ad = grads[p].reshape(-1)
        worst = 0.0
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + eps
            fp = float(f(params).data)
            flat[ci] = orig - eps
            fm = float(f(params).data)
            flat[ci] = orig
            fd = (fp - fm) / (2.0 * eps)
            err = abs(ad[ci] - fd) / max(abs(ad[ci]), abs(fd), 1e-3)
            if err > worst:
                worst = err
        key = p.name if p.name else f"param{pi}"
        per_param[key] = worst
        max_err = max(max_err, worst)
    return GradCheckReport(max_err, tol, per_param)
