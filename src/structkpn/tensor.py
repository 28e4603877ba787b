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

The sweep frees what it has used: once a node's backward has run, the node
drops its closure and its parent edges, so the arrays the closure saved die
during the sweep, not with the graph. A graph can therefore be swept once; a
second sweep raises ``ShapeError``, as PyTorch's autograd does without
``retain_graph``. Gradients go the same way: an op node remembers its output
Tensor by a weak reference, and once the node's backward has passed its
gradient on, the node drops it unless the caller still holds that Tensor.
After ``backward``, leaves and held op outputs keep ``.grad`` and the
interior gradients of dropped Tensors are gone, as PyTorch keeps no non-leaf
grad unless asked.

A ``StepArena`` lends the large per-step arrays of the ops (conv outputs,
padded inputs, gradients and block scratch, relu/add/softmax outputs,
relu's and ``local_conv``'s gradients, ``kpn_filter``'s field blocks, output
and feature gradient, ``accumulate_grad``'s sums) while it is entered,
and takes a buffer back once ``sys.getrefcount`` shows that no Tensor,
closure or view refers to it. ``training.train`` enters one around each
step, so the next step reuses the pages the last one freed instead of
faulting fresh ones. With no arena entered, every op allocates with
``np.empty`` as before.

``conv2d`` pads its input once into a channel-major buffer holding the batch
end to end, so each kernel tap is one strided slice of it, and works over
cache-sized blocks written straight into the output. At every width it
accumulates one GEMM per tap (or small chunk of taps) in the block itself,
with no column buffer and no temporary, and its backward adds each tap's
input gradient straight into the columns that tap reads. A 1x1 conv pads
nothing: it runs one GEMM per image on the input as given. Its backward
keeps no padded copy: it re-pads the input, which it keeps only for the
weight gradient. The forward's core, ``_conv_forward``, takes a buffer its
caller has padded, so ``kpn.denoise_image`` runs the same GEMMs on row bands
that bring their own halo rows, and writes each band straight into the next
conv's padded input.

A conv GEMM that adds into its output goes through ``_gemm``,
C = A B + beta C, the update BLAS computes natively: it calls the CBLAS
dgemm of the OpenBLAS that numpy ships and has already loaded, through
``ctypes``, so taps, groups and images accumulate inside BLAS. Where numpy
ships no such library, ``_gemm`` runs ``np.matmul`` and an add, the same
arithmetic and the same bits. The GEMMs that only write their output, a
k x k conv's weight gradient and a 1x1 conv's input gradient, stay one
batched ``np.matmul`` over the groups, which costs less per call.

``local_conv`` applies a per-pixel filter field, the one op the kernel
prediction network adds to a plain CNN; each kernel row's k taps read one
strided view of the padded input. ``kpn_filter`` is the network's 1x1 head,
the optional per-pixel softmax and ``local_conv`` as one op that never holds
more of its field than a block of ``_BLOCK_VALUES`` values: an image's bands
of whole rows where a pixel needs all its filters (x's gradient too), its
blocks of taps where a tap needs all its pixels (the head's gradients), cut
where every kernel set of OpenBLAS keeps the whole GEMMs' bits at one thread
(``_SMALL_GEMM``). Its backward rebuilds the filters it reads from the head,
but a field of one block is kept on the tape. ``kpn.denoise_image`` cuts
its bands with the same rules, starting on any row with each head GEMM
widened to whole panels (``_widened_bands``), and filters them with
``_filter_band``, the forward over one band. ``ssim_map`` is the per-pixel
SSIM of the structure-aware loss as one op: its window means come from
``box_filter``, a numpy box filter that ``gradstats`` also uses, and its
backward is the closed form through the box's adjoint. Every differentiable
op lives in this module, so ``registered_ops()`` is a constant tuple of
their names, complete once this module is imported.
"""

import bisect
import ctypes
import math
import sys
import weakref
from pathlib import Path

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
    "kpn_filter",
    "box_filter",
    "edge_pad",
    "ssim_from_moments",
    "ssim_map",
    "backward",
    "grad_check",
    "make_op",
    "accumulate_grad",
    "registered_ops",
    "StepArena",
]


class ShapeError(ValueError):
    """Shape/contract violation."""


class StepArena:
    """Float64 buffers lent to the ops of one training step at a time.

    ``with arena:`` makes the ops take their large arrays from ``lend``; the
    arena keeps every buffer it made across steps. A buffer is free when
    ``sys.getrefcount`` shows only the arena's own references: any Tensor,
    closure, gradient or view of it holds a reference to the buffer itself,
    since numpy points every view at the array that owns the memory. A
    request takes the smallest free buffer that holds it, unless that buffer
    is over eight times its size (so a 64-channel activation of a 48^2
    patch may borrow a 2 MB block of ``kpn_filter``'s field, but a loss map
    may not); failing that it makes a buffer of its own size, which replaces
    the largest free buffer too small for it, so the arena holds about as
    many buffers as a step has live at once. Lent arrays are uninitialised,
    as from ``np.empty``.
    """

    def __init__(self):
        self._bufs = []                           # flat buffers by ascending size

    def __enter__(self):
        global _arena
        _arena = self
        return self

    def __exit__(self, *exc):
        global _arena
        _arena = None

    def lend(self, shape):
        n = math.prod(shape)
        bufs, small = self._bufs, None
        for i in range(len(bufs)):
            if sys.getrefcount(bufs[i]) > 2:      # more than the list and the call's argument
                continue
            size = bufs[i].size
            if size >= n:
                if size <= 8 * n:
                    return bufs[i][:n].reshape(shape)
                break
            small = i
        if small is not None:
            del bufs[small]
        buf = np.empty(n)
        bisect.insort(bufs, buf, key=len)
        return buf[:n].reshape(shape)


_arena = None      # the entered StepArena, if any


def _empty(shape):
    """An uninitialised float64 array: lent by the entered arena, else ``np.empty``."""
    return np.empty(shape) if _arena is None else _arena.lend(shape)


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
    _backward_fn = _node_field("backward_fn", "The op's backward closure (None on a leaf, "
                               "``_swept`` once a sweep has run and dropped it).")
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

        Each op node drops its closure and parent edges once the closure has
        run, so what the closure saved dies during the sweep, and sweeping
        the graph again raises ``ShapeError``. Leaves and the op outputs the
        caller still holds keep ``.grad``; an op output that is gone loses
        its gradient as soon as its backward has run, so the sweep holds only
        the gradients still to be passed on.
        """
        if self.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self._node)
        for node in order:
            node.grad = None
        self._node.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            fn = node.backward_fn
            if fn is None:
                continue
            node.backward_fn, node.parents = _swept, ()
            if node.grad is not None:
                fn(node.grad)
                if node.owner is not None and node.owner() is None:
                    node.grad = None
            del fn                                # the closure dies here, with what it saved


def _swept(grad):
    """The backward of a node whose closure a sweep has run and dropped."""
    raise ShapeError("backward: the graph was already swept, which freed what its ops "
                     "saved; build it again to sweep it again")


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
    alive; one that captures its parent Tensors keeps their data alive until
    the sweep has run it.
    """
    node = t._node if isinstance(t, Tensor) else t
    if node.requires_grad:
        if node.grad is None:
            node.grad = g
        else:
            node.grad = np.add(node.grad, g, out=_empty(node.grad.shape))


# Every differentiable op of the library, by the name its tape nodes carry, so
# gradient-audit suites can enumerate full coverage.
_OP_REGISTRY = (
    "add", "sub", "mul", "div", "neg", "abs", "relu",
    "softmax", "reduce_mean", "reduce_sum", "conv2d", "local_conv", "kpn_filter", "ssim_map",
)


def registered_ops():
    return _OP_REGISTRY


def make_op(data, parents, backward_fn, op):
    """Create an op-output tensor; every op of the library is built with it.

    ``backward_fn(grad_out)`` must call :func:`accumulate_grad` on each
    gradient-requiring parent and must not mutate ``grad_out``. The tape node
    is dropped entirely when no parent requires a gradient. The tape keeps the
    closure, and with it whatever the closure captures, until the sweep has
    run it or the graph dies unswept: capture the parents' ``_node`` and only
    the arrays the backward reads. The
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

        return make_op(np.add(a.data, shift, out=_empty(a.data.shape)), (a,), bwd, "add")

    _require_same_shape("add", a, b)
    bn = b._node

    def bwd(g):
        accumulate_grad(an, g)
        accumulate_grad(bn, g)

    return make_op(np.add(a.data, b.data, out=_empty(a.data.shape)), (a, b), bwd, "add")


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
    out_data = np.maximum(a.data, 0.0, out=_empty(a.data.shape))
    an = a._node

    def bwd(g):
        accumulate_grad(an, np.multiply(g, out_data > 0, out=_empty(g.shape)))

    return make_op(out_data, (a,), bwd, "relu")


def _softmax(a, axis, out, top=None, total=None):
    """Max-shifted softmax of a along axis into out (may be a): the one softmax of the package.

    Returns out and the max and exp-sum it used (keepdims). Given those of a
    larger array, a slice of whose axis a is, it rebuilds that slice's bits.
    """
    if top is None:
        top = a.max(axis=axis, keepdims=True)
    np.subtract(a, top, out=out)
    np.exp(out, out=out)
    if total is None:
        total = out.sum(axis=axis, keepdims=True)
    out /= total
    return out, top, total


def softmax_vec(v, axis=-1):
    """Max-shifted softmax along ``axis``; output sums to 1 there."""
    out_data = _softmax(v.data, axis, _empty(v.data.shape))[0]
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


# -- GEMM ---------------------------------------------------------------------

def _blas_dgemm():
    """The CBLAS dgemm of the OpenBLAS bundled with numpy, or None where numpy ships none.

    numpy's wheels bundle scipy-openblas (64-bit integers, symbols suffixed
    ``64_``) and load it on import, so this binds the same library and its
    thread setting; nothing new is installed or loaded.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_cblas_dgemm64_
        except (OSError, AttributeError):
            continue
        i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        fn.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [dbl, ptr, i64, ptr, i64, dbl, ptr, i64]
        fn.restype = None
        return fn
    return None


_DGEMM = _blas_dgemm()
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112     # CBLAS enum values


def _blas_layout(a, what):
    """(CBLAS transpose flag, leading dimension) of a float64 matrix or of the .T of one.

    BLAS reads rows of unit column stride, each a leading dimension apart, so
    any other layout (or a leading dimension below the row's width) would
    make it read the wrong memory; those raise instead. A length-1 axis has
    no stride to check.
    """
    if a.ndim != 2 or a.dtype != np.float64:
        raise ShapeError(f"_gemm: {what} must be a 2-D float64 matrix, got {a.dtype} {a.shape}")
    (rows, cols), (rs, cs) = a.shape, a.strides
    if cols == 1 or cs == 8:
        ld = rs // 8 if rows > 1 else cols
        if rs % 8 == 0 and ld >= cols:
            return _NO_TRANS, ld
    if rows == 1 or rs == 8:
        ld = cs // 8 if cols > 1 else rows
        if cs % 8 == 0 and ld >= rows:
            return _TRANS, ld
    raise ShapeError(f"_gemm: {what} has shape {a.shape} and strides {a.strides}; BLAS needs "
                     "unit column stride and a row stride of at least the row's width")


def _gemm(a, b, c, beta):
    """c = a @ b + beta * c in place, for 2-D float64 matrices; c must not overlap a or b.

    a and b may each be a row-major matrix or the transpose (``.T``) of one;
    c must be row-major. Every operand's layout is checked before the call.
    With beta 0, c's old values are not read. Where numpy ships no OpenBLAS
    to bind, the product is ``np.matmul`` and, with beta 1, an add into c.
    So is a product of one row or one column, which numpy runs as a gemv and
    BLAS's dgemm would round differently, and an empty one.
    """
    (m, k), (k2, n) = a.shape, b.shape
    if c.shape != (m, n) or k2 != k:
        raise ShapeError(f"_gemm: {a.shape} @ {b.shape} does not make {c.shape}")
    ta, lda = _blas_layout(a, "a")
    tb, ldb = _blas_layout(b, "b")
    tc, ldc = _blas_layout(c, "c")
    if tc != _NO_TRANS or not c.flags.writeable:
        raise ShapeError("_gemm: c must be a writeable row-major matrix")
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        raise ShapeError("_gemm: c overlaps an operand")
    if _DGEMM is None or min(m, n) <= 1 or k == 0:
        if beta == 0:
            np.matmul(a, b, out=c)
        else:
            if beta != 1:
                c *= beta
            c += np.matmul(a, b)
    else:
        _DGEMM(_ROW_MAJOR, ta, tb, m, n, k, 1.0, a.ctypes.data, lda, b.ctypes.data, ldb,
               float(beta), c.ctypes.data, ldc)


# -- convolution --------------------------------------------------------------

def edge_pad(x, ph, pw, out):
    """Write x (..., H, W) edge-padded by ph rows and pw columns into out; returns out.

    out is (..., H + 2ph, W + 2pw), any buffer the caller owns. Every padded
    cell copies the nearest in-bounds pixel, the values of ``np.pad`` with
    mode "edge", which cannot write into a given buffer.
    """
    h, w = x.shape[-2:]
    out[..., ph:ph + h, pw:pw + w] = x
    out[..., :ph, pw:pw + w] = x[..., :1, :]
    out[..., ph + h:, pw:pw + w] = x[..., h - 1:, :]
    out[..., :pw] = out[..., pw:pw + 1]
    out[..., pw + w:] = out[..., pw + w - 1:pw + w]
    return out


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

# The forward pass accumulates its tap GEMMs over blocks of about this many
# output values (Cout x padded-pitch columns), 2 MB a block; kpn_filter holds
# its filter field in blocks of the same size. Every tap's GEMM
# adds into the block, so it must stay in cache rather than stream through
# memory. Sizing by values, not columns, lets a small conv put a whole batch
# in one block instead of making many tiny GEMM calls. A block
# of stacked taps is sized by twice their rows instead, when that is more than
# Cout: their buffer (1 MB at most) then stays in cache beside the output.
_BLOCK_VALUES = 262144


def _conv_taps(wdata, groups, wp):
    """conv2d's weight matrix and tap chunks for a kernel over rows of pitch wp.

    Column t*Cin_g + c of the (groups, Cout_g, taps*Cin_g) matrix holds the
    weight of input channel c at tap t, the row order of ``_tap_rows``. The
    matrix is a view of wdata when wdata is laid out that way, as
    ``_tap_major`` leaves it, and a copy otherwise. A chunk is (its columns
    of that matrix, the flat shifts dy*wp + dx of its taps); it holds one tap
    unless ``_MIN_GEMM_K`` asks for more.
    """
    cout, cin_g, kh, kw = wdata.shape
    taps = kh * kw
    shifts = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    step = -(-max(cout // groups, _MIN_GEMM_K) // cin_g)    # taps per chunk
    chunks = [(slice(t * cin_g, min(t + step, taps) * cin_g), shifts[t:t + step])
              for t in range(0, taps, step)]
    wmat = np.ascontiguousarray(wdata.reshape(groups, cout // groups, cin_g, taps).swapaxes(2, 3))
    return wmat.reshape(groups, cout // groups, taps * cin_g), chunks


def _tap_major(wdata):
    """A (Cout, Cin/g, kh, kw) conv weight with its values laid out tap-major.

    The result equals wdata but is a view of a (Cout, kh*kw, Cin/g) buffer,
    the order of ``_conv_taps``' weight matrix, so ``_conv_taps`` takes it
    with no copy. A 1x1 weight is tap-major already and stays as it is.
    """
    cout, cin_g, kh, kw = wdata.shape
    buf = np.ascontiguousarray(wdata.reshape(cout, cin_g, kh * kw).swapaxes(1, 2))
    return buf.swapaxes(1, 2).reshape(wdata.shape)


def _tap_rows(xf, ss, base, length, buf=None):
    """The GEMM operand of a chunk's taps: flat slices of xf (..., Cin_g, M), stacked when several.

    Stacked taps are copied into the front of ``buf`` when one is given.
    """
    if len(ss) == 1:
        return xf[..., base + ss[0]:base + ss[0] + length]
    lead = xf.shape[:-2]
    shape = lead + (len(ss), xf.shape[-2], length)
    rows = np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)
    for j, s in enumerate(ss):
        rows[..., j, :, :] = xf[..., base + s:base + s + length]
    return rows.reshape(lead + (-1, length))


def _conv_forward(xf, wmat, chunks, bias, out):
    """conv2d's forward over a padded channel-major buffer, written into ``out``.

    xf is (groups, Cin/groups, N, Hp, Wp): N inputs, each already padded by
    kh//2 rows and kw//2 columns. The caller pads, so a band of rows can
    bring its real neighbours as its top and bottom halo. out is
    (N, Cout, H, W), or, for one input and a square kernel, (Cout, H, Wp):
    rows of the padded pitch, such as the next conv's padded input. This is
    the one block-GEMM loop of conv2d and of ``kpn.denoise_image``'s stream.
    The output accumulates one 2-D GEMM per chunk of taps and group over
    blocks of about ``_BLOCK_VALUES`` output values of whole padded rows (a
    band of one image, or several whole images), group by group, so a
    group's rows stay in cache across its taps: the first chunk's GEMM
    writes them and each later one adds into them inside BLAS. Into an
    (N, Cout, H, W) out, a block accumulates in a buffer, gets the bias and
    has its cropped rows copied into out; columns between images are
    computed and cropped away. A (Cout, H, Wp) out takes the GEMMs straight,
    kw//2 columns in: pixel (i, j) lands at [:, i, j + kw//2], and each row's
    Wp - W wrap-around columns on the pad columns, which the caller fills.
    Either way every GEMM has the same shape and operands. A chunk of
    several taps is copied into one buffer. Both buffers are allocated once
    per call with ``_empty``, so a step's convs reuse them through the arena.
    """
    groups, cin_g, n, hp, wp = xf.shape
    cout, h = wmat.shape[0] * wmat.shape[1], out.shape[-2]
    direct = out.ndim == 3
    w = wp - (hp - h) if direct else out.shape[3]
    cout_g = cout // groups
    xf = xf.reshape(groups, cin_g, -1)
    # A block is whole padded rows: a band of rows of one image, or as many
    # whole padded images as fit; its last row stops at column w.
    stacked = chunks[0][0].stop if len(chunks[0][1]) > 1 else 0   # a chunk's rows per group
    rows = max(cout, 2 * groups * stacked)
    per = _BLOCK_VALUES // (rows * hp * wp)            # images per block
    if per > 1:
        band, pitch = h, hp
    else:
        per = 1
        band = pitch = -(-h // -(-rows * h * wp // _BLOCK_VALUES))   # split evenly
    widest = min(per, n) * pitch * wp
    if direct:
        into = out.reshape(groups, cout_g, -1, copy=False)[..., (wp - w) // 2:]
    else:
        acc_buf = _empty((cout * widest,))
    tap_buf = _empty((stacked * widest,)) if stacked else None
    for b in range(0, n, per):
        nb = min(per, n - b)
        for i in range(0, h, band):
            nr = min(band, h - i)
            base = (b * hp + i) * wp
            length = ((nb - 1) * pitch + nr) * wp - (wp - w)
            if direct:
                acc = into[..., base:base + length]
            else:
                block = acc_buf[:cout * nb * pitch * wp].reshape(cout, nb, pitch, wp)
                acc = block.reshape(groups, cout_g, -1)[..., :length]
            for j in range(groups):
                for ks, ss in chunks:
                    taps = _tap_rows(xf[j], ss, base, length, tap_buf)
                    _gemm(wmat[j, :, ks], taps, acc[j], ks.start > 0)
            acc += bias.reshape(groups, cout_g, 1)
            if not direct:
                np.copyto(out[b:b + nb, :, i:i + nr], block[:, :, :nr, :w].transpose(1, 0, 2, 3))


def conv2d(x, weights, bias, groups=1):
    """Grouped 2-D cross-correlation with same-size edge-replication padding.

    x: (N, Cin, H, W); weights: (Cout, Cin/groups, kh, kw) with kh, kw odd;
    bias: (Cout,). Output: (N, Cout, H, W). Differentiable w.r.t. all three.

    Channel-major, batch-folded layout: the input is edge-padded once into
    xf = (groups, Cin/groups, N*Hp*Wp), so the N padded images sit end to end
    and output pixel (b, i, j) is flat index (b*Hp + i)*Wp + j. Tap (dy, dx) is
    then the strided slice of xf starting at dy*Wp + dx, for the whole batch at
    once. The forward, ``_conv_forward``, runs one GEMM per chunk of taps,
    block by block into the output, each later chunk adding into the block
    inside BLAS: a chunk is one tap (a view of xf), or a small stack of taps
    when Cin/groups is below Cout/groups or ``_MIN_GEMM_K`` (every stem). The
    forward drops xf once the output is written. The backward runs over the
    whole batch and rebuilds xf from x, with the same pad, only for the weight
    gradient, one GEMM per forward chunk, so the tape keeps x's data only when
    the weights need a gradient, and lets it go once it is re-folded. The
    input gradient needs only the output gradient and the weights, whose
    tap-major matrix it re-derives from the weights' own array rather than
    keep a copy on the tape: it
    scatters, each tap's GEMM adding straight into the columns that tap
    reads. Columns between images get zero gradient. A 1x1 kernel takes
    ``_pointwise_conv`` instead, with no padded or channel-major copy.
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
    if kh == kw == 1:
        return _pointwise_conv(x, weights, bias, groups)

    cout_g = cout // groups
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    m = n * hp * wp
    span = m - (hp - h) * wp - (wp - w)          # flat index of the last output pixel + 1

    def fold(xd):
        return edge_pad(xd.transpose(1, 0, 2, 3), ph, pw,
                        _empty((cin, n, hp, wp))).reshape(groups, cin_g, m)

    xf = fold(x.data)
    wmat, chunks = _conv_taps(weights.data, groups, wp)
    out_data = _empty((n, cout, h, w))
    _conv_forward(xf.reshape(groups, cin_g, n, hp, wp), wmat, chunks, bias.data, out_data)
    del xf, wmat                                 # the backward re-pads x and re-derives wmat
    xn, wn, bn, wd = x._node, weights._node, bias._node, weights.data
    xd = x.data if wn.requires_grad else None    # read only by the weight gradient
    shifts = [s for _, ss in chunks for s in ss]

    def bwd(g):
        nonlocal xd
        if bn.requires_grad:
            accumulate_grad(bn, g.sum(axis=(0, 2, 3)))
        gf = _empty((cout, n, hp, wp))
        gf[:, :, :h, :w] = g.transpose(1, 0, 2, 3)
        gf[:, :, :h, w:] = 0.0                  # the columns between images get no gradient
        gf[:, :, h:] = 0.0
        gf = gf.reshape(groups, cout_g, m)[..., :span]
        if wn.requires_grad:
            xf = fold(xd)
            xd = None                            # x's data is no longer held for this op
            dw = np.empty((groups, cout_g, kh * kw * cin_g))
            for ks, ss in chunks:
                np.matmul(gf, _tap_rows(xf, ss, 0, span).swapaxes(-1, -2), out=dw[..., ks])
            del xf
            accumulate_grad(wn, dw.reshape(groups, cout_g, kh * kw, cin_g).swapaxes(2, 3)
                            .reshape(wd.shape))
        if xn.requires_grad:
            # each tap's GEMM adds into the columns the tap reads
            wmat = _conv_taps(wd, groups, wp)[0]
            gxf = _empty((groups, cin_g, m))
            gxf.fill(0.0)
            for j in range(groups):
                for t, s in enumerate(shifts):
                    _gemm(wmat[j, :, t * cin_g:(t + 1) * cin_g].T, gf[j],
                          gxf[j, :, s:s + span], 1)
            del gf                               # free before accumulate_grad may allocate
            gxf = gxf.reshape(cin, n, hp, wp).transpose(1, 0, 2, 3)
            accumulate_grad(xn, _collapse_replication(gxf, ph, pw))

    return make_op(out_data, (x, weights, bias), bwd, "conv2d")


def _pointwise_conv(x, weights, bias, groups):
    """conv2d with a 1x1 kernel: one GEMM per image and group on the arrays as given.

    Image b's channels already form a (Cin, H*W) matrix, so nothing is padded
    or folded channel-major. The forward is ``_head_field`` per group. The
    input gradient lands in (N, Cin, H, W) image by image, and the weight
    gradient sums the images in order, each GEMM adding into it inside BLAS.
    """
    n, cin, h, w = x.data.shape
    cout = weights.data.shape[0]
    cin_g, cout_g = cin // groups, cout // groups
    wmat = weights.data.reshape(groups, cout_g, cin_g)
    xs = x.data.reshape(n, groups, cin_g, h * w)
    out_data = _empty((n, cout, h, w))
    outs = out_data.reshape(n, groups, cout_g, h * w)
    for j in range(groups):
        _head_field(xs[:, j], wmat[j], bias.data[j * cout_g:(j + 1) * cout_g], outs[:, j])
    xn, wn, bn, wshape = x._node, weights._node, bias._node, weights.data.shape
    xkept = xs if wn.requires_grad else None     # read only by the weight gradient

    def bwd(g):
        if bn.requires_grad:
            accumulate_grad(bn, g.sum(axis=(0, 2, 3)))
        gs = np.ascontiguousarray(g).reshape(n, groups, cout_g, h * w)
        if wn.requires_grad:
            dw = np.empty((groups, cout_g, cin_g))
            for j in range(groups):
                for b in range(n):
                    _gemm(gs[b, j], xkept[b, j].T, dw[j], b > 0)
            accumulate_grad(wn, dw.reshape(wshape))
        if xn.requires_grad:
            dx = _empty((n, groups, cin_g, h * w))
            for b in range(n):
                np.matmul(wmat.swapaxes(-1, -2), gs[b], out=dx[b])
            accumulate_grad(xn, dx.reshape(n, cin, h, w))

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


def _windows(xp, k, h, w):
    """Every tap's window of xp (nb, h+2r, w+2r), padded by r, as one (nb, k, k, h, w) view.

    [:, a, j] is the window that tap a*k + j reads, the one ``_tap`` slices,
    so the k taps of a kernel row are one strided operand of one numpy call.
    """
    r = k // 2
    sn, sy, sx = xp.strides
    return np.lib.stride_tricks.as_strided(xp[:, 2 * r:, 2 * r:], (len(xp), k, k, h, w),
                                           (sn, -sy, -sx, sy, sx), writeable=False)


def _kernel_rows(t0, t1, k):
    """Taps t0..t1-1 by kernel row: (row a, its taps' slice j0:j1, their slice from t0 on)."""
    for a in range(t0 // k, -(-t1 // k)):
        j0, j1 = max(t0 - a * k, 0), min(t1 - a * k, k)
        yield a, slice(j0, j1), slice(a * k + j0 - t0, a * k + j1 - t0)


def _add_in_order(acc, buf, first=False):
    """acc + buf[:, 1] + ... + buf[:, -1], added in order into acc, or from buf[:, 1] on if first.

    buf is (nb, 1 + terms, ...) and its slot 0 is scratch. Over more than one
    pixel this is one ``np.add.reduce``, whose inner loop runs along the
    pixels, so it adds the terms one after another as repeated ``+=`` does.
    Over one pixel numpy would sum them pairwise, so they are added one by one.
    """
    if first:
        buf = buf[:, 1:]
    else:
        buf[:, 0] = acc
    if buf[0, 0].size > 1:
        return np.add.reduce(buf, axis=1, out=acc)
    acc[...] = buf[:, 0]
    for j in range(1, buf.shape[1]):
        acc += buf[:, j]
    return acc


def _filter_window(xp, v, out):
    """sum_t tap t's window of xp times v[:, t], added in tap order into out (nb, h, w).

    xp is (nb, h+2r, w+2r), padded by r, and v (nb, k^2, h*w). A kernel
    row's k products are one numpy call, and so is adding them to out.
    """
    nb, h, w = out.shape
    k = math.isqrt(v.shape[1])
    win, v = _windows(xp, k, h, w), v.reshape(nb, k, k, h, w)
    prods = np.empty((nb, 1 + k, h, w))
    out.fill(0.0)
    for a in range(k):
        np.multiply(win[:, a], v[:, a], out=prods[:, 1:])
        _add_in_order(out, prods)
    return out


def _scatter_window(g, v, k, gxp):
    """_filter_window's adjoint in x: g * v[:, t] added onto tap t's window of gxp, in tap order.

    g is (nb,1,h,w), v (nb,k^2,h,w) and gxp (nb,1,h+2r,w+2r), zeroed by the caller.
    """
    h, w = g.shape[2:]
    for t in range(v.shape[1]):
        _tap(gxp, t, k, h, w)[...] += g * v[:, t:t + 1]
    return gxp


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
    n, _, h, w = xd.shape
    xp = edge_pad(xd[:, 0], r, r, np.empty((n, h + 2 * r, w + 2 * r)))
    xn, vn, vshape = x._node, v._node, vd.shape
    vkept = vd if xn.requires_grad else None     # read only by the input gradient

    def bw(g):
        if vn.requires_grad:
            gv = _empty(vshape)
            win, gv5 = _windows(xp, k, h, w), gv.reshape(n, k, k, h, w)
            for a in range(k):
                np.multiply(g, win[:, a], out=gv5[:, a])
            accumulate_grad(vn, gv)
        if xn.requires_grad:
            gxp = _empty((n, 1) + xp.shape[1:])
            gxp.fill(0.0)
            accumulate_grad(xn, _collapse_replication(_scatter_window(g, vkept, k, gxp), r, r))

    out = np.empty(xd.shape)
    _filter_window(xp, vd.reshape(n, k * k, h * w), out[:, 0])
    return make_op(out, (x, v), bw, "local_conv")


# kpn_filter splits its field into blocks of about _BLOCK_VALUES values.
# Each split is of a GEMM's M or N, never of its K, and keeps the whole
# GEMM's bits only where OpenBLAS runs it on the same kernels. At one thread
# these rules keep them under each of OpenBLAS 0.3.31's kernel sets tested
# (SkylakeX; Haswell, which Zen loads too; Sandybridge; Nehalem; Prescott):
# - every split product does more than _SMALL_GEMM multiply-adds, as smaller
#   ones run on SkylakeX's small-matrix kernels;
# - a band of pixels, the GEMMs' M, starts at a multiple of _GEMM_ROWS
#   pixels and spans more than _GEMM_PANEL of them, so that SkylakeX's
#   16-row panels (every other set's divide 16) and its last, narrower one
#   fall where the whole image's do;
# - a block of taps, the GEMMs' N, starts at a multiple of _GEMM_TAPS taps,
#   the N panel of Haswell's 4x8 kernel, which every other set's divides,
#   and is never one tap (k^2 = 1 mod 8), as a one-row product is a gemv;
# - a block of taps rounds the image's last H*W % _GEMM_ROWS pixels
#   otherwise on SkylakeX, so the forward keeps their softmax filters.
_SMALL_GEMM = 10 ** 6
_GEMM_ROWS = 16
_GEMM_PANEL = 192
_GEMM_TAPS = 8


def _parts(total, size, least, step=1):
    """range(total) as even [start, stop) parts of about size, each starting at a
    multiple of step and longer than least; one part where that leaves no split."""
    parts = max(1, min(-(-total // size), total // (least + step)))
    units = -(-total // step)
    cuts = [step * (p * units // parts) for p in range(parts)] + [total]
    return list(zip(cuts[:-1], cuts[1:]))


def _bands(h, w, k2, c, step=None):
    """An (h, w) image's bands of whole rows for a head of c features and k2 filters, as [start, stop).

    Each starts on a multiple of _GEMM_ROWS pixels, or on a multiple of
    ``step`` rows when one is given.
    """
    step = step or _GEMM_ROWS // math.gcd(w, _GEMM_ROWS)
    least = max(_SMALL_GEMM // (k2 * c), _GEMM_PANEL) // w
    return _parts(h, max(1, _BLOCK_VALUES // (k2 * w)), least, step)


def _widened_bands(h, w, k2, c):
    """``_bands`` starting on any row, as (start, stop, a, b): the band's head GEMM runs
    over pixels [a, b), its own widened to multiples of _GEMM_ROWS but at the image's end.

    So every GEMM's panels fall where the whole image's do, and an odd width's
    field is cut into bands of the rows an even width's are, not of 16 rows.
    """
    g = _GEMM_ROWS
    return [(i, e, i * w // g * g, min(h * w, -(-e * w // g) * g))
            for i, e in _bands(h, w, k2, c, 1)]


def _tap_blocks(px, k2, c):
    """Blocks of the k2 taps of a head of c features over px pixels, as [start, stop):
    whole steps of _GEMM_TAPS taps, the last block taking the taps past the last step."""
    steps = _parts(max(1, k2 // _GEMM_TAPS), max(1, _BLOCK_VALUES // (px * _GEMM_TAPS)),
                   _SMALL_GEMM // (px * c * _GEMM_TAPS))
    return [(_GEMM_TAPS * a, k2 if b == steps[-1][1] else _GEMM_TAPS * b) for a, b in steps]


def _head_field(fd, wmat, bias, out):
    """Rows wmat (T, C) of a 1x1 conv with bias (T,) on features fd (nb, C, P), into out (nb, T, P).

    The bias goes in first and each image's GEMM adds into it, so every value
    is the product plus the bias rounded once, as adding the bias after gives,
    while BLAS sums the C terms in one pass (OpenBLAS's inner block is 384 on
    AVX-512; the head has 64). A band cut by ``_bands`` has the bits of the
    same values of the whole field, and so does a block of rows cut by
    ``_tap_blocks`` but at the image's last H*W % 16 pixels; ``kpn_filter``
    rebuilds in its backward only the filters it reads but did not keep.
    """
    out[...] = bias[:, None]
    for b in range(len(fd)):
        _gemm(wmat, fd[b], out[b], 1)
    return out


def _filter_band(xp, fd, wmat, bias, softmax, field, out, lead=0):
    """kpn_filter's forward over a band of pixels, all k^2 filters of each.

    The head's filters of features fd (nb, C, P) go into field (nb, k^2, P),
    softmax-normalised when asked, and those from pixel ``lead`` on filter
    xp (nb, h+2r, w+2r), the band's rows of the padded input, into out
    (nb, h, w). Returns the softmax's per-pixel max and exp-sum, (nb, 1, P)
    each, or None.
    """
    _head_field(fd, wmat, bias, field)
    stats = _softmax(field, 1, field)[1:] if softmax else None
    _filter_window(xp, field[..., lead:lead + out[0].size], out)
    return stats


def kpn_filter(x, feats, weights, bias, softmax=False):
    """The kpn head and its filtering in one op, never holding more than a block of its field.

    x is (N,1,H,W), feats (N,C,H,W), weights (k^2,C,1,1) with k odd and bias
    (k^2,). The value and gradients are the bits of ``local_conv(x, v)``, v
    the 1x1 head ``conv2d(feats, weights, bias)`` or, with ``softmax``, its
    ``softmax_vec`` over the k^2 channels.

    It runs an image at a time:

    - the forward over bands of whole rows, each holding all k^2 filters of
      its pixels; the tape keeps each pixel's softmax max and exp-sum;
    - the backward's band pass over the same bands, for what needs every tap
      of a pixel: the softmax's per-pixel sum_t g x_t s_t, the features'
      gradient, and the scatter of x's gradient, which adds a cell's taps in
      tap order band after band, as a later tap reads the cell from a later
      output row;
    - for an image of several bands, its tap pass over blocks of taps, rows
      of the head's weights, for what needs every pixel of a tap: the
      weights' and bias's gradients. A band of all its image's rows does
      that work from its own field gradient in one call.

    Without softmax the field's gradient g x_t needs no field. The band pass
    rebuilds the filters it reads, for the softmax or x's gradient, from the
    head and the kept max and exp-sum, and so does the tap pass for a
    softmax head, the forward keeping for it the filters of the image's last
    H*W % 16 pixels, which the tap blocks' head GEMM rounds otherwise. A
    whole field of at most ``_BLOCK_VALUES`` values, as at the SMOKE config,
    is kept on the tape instead, the forward writing its bands into it.

    A block is at most about ``_BLOCK_VALUES`` values, more where the
    smallest one whose GEMMs keep the bits (see ``_SMALL_GEMM``) is larger:
    up to 16 rows of a band at odd widths, 8 or 9 taps of a field of over
    ``_BLOCK_VALUES / 8`` pixels, and larger blocks for a head of under 4
    features.
    """
    xd, fd, wd, bd = x.data, feats.data, weights.data, bias.data
    if xd.ndim != 4 or xd.shape[1] != 1:
        raise ShapeError(f"kpn_filter: input must be (N,1,H,W), got {xd.shape}")
    if fd.ndim != 4 or fd.shape[0] != xd.shape[0] or fd.shape[2:] != xd.shape[2:]:
        raise ShapeError(f"kpn_filter: features {fd.shape} do not match input {xd.shape} "
                         "on batch/spatial axes")
    n, c, h, w = fd.shape
    if wd.ndim != 4 or wd.shape[1:] != (c, 1, 1):
        raise ShapeError(f"kpn_filter: weights must be (k^2,{c},1,1), got {wd.shape}")
    k2 = wd.shape[0]
    k, r = _filter_geometry(k2)
    if bd.shape != (k2,):
        raise ShapeError(f"kpn_filter: bias shape {bd.shape} != ({k2},)")
    xn, fn, wn, bn = x._node, feats._node, weights._node, bias._node
    wmat, fs, px = wd.reshape(k2, c), fd.reshape(n, c, h * w), h * w
    xp = edge_pad(xd[:, 0], r, r, np.empty((n, h + 2 * r, w + 2 * r)))
    out_data = _empty(xd.shape)
    bands, taps = _bands(h, w, k2, c), _tap_blocks(px, k2, c)
    reads = softmax or xn.requires_grad         # the backward reads the filters
    # a field of one block has one band an image, so a band is a kept image
    kept = _empty((n, k2, px)) if reads and n * k2 * px <= _BLOCK_VALUES else None
    stats = np.empty((2, n, 1, px)) if softmax and kept is None else None
    # the softmax filters a block of taps reads at the last pixels, from the forward
    tail = np.empty((n, k2, px % _GEMM_ROWS)) if softmax and len(bands) > 1 else None
    for a in range(n):
        for i, e in bands:
            field = _empty((1, k2, (e - i) * w)) if kept is None else kept[a:a + 1]
            st = _filter_band(xp[a:a + 1, i:e + 2 * r], fs[a:a + 1, :, i * w:e * w], wmat, bd,
                              softmax, field, out_data[a:a + 1, 0, i:e])
            if stats is not None:
                stats[:, a, :, i * w:e * w] = np.concatenate(st)
            if tail is not None and e == h:
                tail[a] = field[0, :, field.shape[2] - tail.shape[2]:]
            del field                       # free before the next band borrows one

    def bwd(g):
        gxp = dw = db = df = None
        if xn.requires_grad:
            gxp = _empty((n, 1) + xp.shape[1:])
            gxp.fill(0.0)
        if wn.requires_grad:
            dw = np.empty((k2, c))
        if bn.requires_grad:
            db = np.empty(k2)
        if fn.requires_grad:
            df = _empty((n, c, px))
        head_grads = dw is not None or db is not None
        # the current image's per-pixel softmax sum, read by every field gradient
        inner = np.empty((1, px)) if softmax and (head_grads or df is not None) else None

        def rebuild(b, t0, t1, i, e):
            """Image b's filters t0..t1 at rows i..e, kept or from the head and the softmax sums."""
            if kept is not None:                # then all of image b's filters
                return kept[b:b + 1]
            p0, p1 = i * w, e * w
            v = _head_field(fs[b:b + 1, :, p0:p1], wmat[t0:t1], bd[t0:t1],
                            _empty((1, t1 - t0, p1 - p0)))
            if softmax:
                _softmax(v, 1, v, *stats[:, b:b + 1, :, p0:p1])
            return v

        def add_inner(b, i, e, v):
            """softmax_vec's sum_t g_t s_t, g_t = g x_t, at image b's rows i..e, from its filters v.

            It adds in tap order; numpy sums the k^2 axis of one pixel pairwise,
            so that is summed whole.
            """
            win, gb = _windows(xp[b:b + 1, i:e + 2 * r], k, e - i, w), g[b:b + 1, :, i:e]
            s = v.reshape(1, k, k, e - i, w)
            acc = inner[:, i * w:e * w].reshape(1, e - i, w)
            if (e - i) * w == 1:
                acc[...] = (gb[:, None] * win * s).sum()
                return
            gx = np.empty((1, 1 + k, e - i, w))
            for a in range(k):
                np.multiply(gb, win[:, a], out=gx[:, 1:])
                gx[:, 1:] *= s[:, a]
                _add_in_order(acc, gx, first=a == 0)

        def field_grad(b, t0, t1, i, e, v):
            """Image b's field gradient at taps t0..t1 and rows i..e: g x_t, or s_t (g x_t - inner).

            It overwrites the filters v, when given, and is (1, t1 - t0, pixels).
            """
            win, gb = _windows(xp[b:b + 1, i:e + 2 * r], k, e - i, w), g[b:b + 1, :, i:e]
            gv = v if v is not None else _empty((1, t1 - t0, (e - i) * w))
            gv4 = gv.reshape(1, t1 - t0, e - i, w)
            gx = np.empty((1, k, e - i, w)) if softmax else None
            for a, js, cs in _kernel_rows(t0, t1, k):
                if softmax:
                    gxr = np.multiply(gb, win[:, a, js], out=gx[:, :cs.stop - cs.start])
                    gxr -= inner[:, i * w:e * w].reshape(1, 1, e - i, w)
                    gv4[:, cs] *= gxr
                else:
                    np.multiply(gb, win[:, a, js], out=gv4[:, cs])
            return gv

        def tap_grads(b, t0, t1, gv):
            """The bias's and weights' gradients at taps t0..t1 from image b's field gradient gv."""
            if db is not None:
                part = gv[0].sum(axis=1)
                db[t0:t1] = part if b == 0 else db[t0:t1] + part
            if dw is not None:
                _gemm(gv[0], fs[b].T, dw[t0:t1], b > 0)

        def band_pass(b, i, e):
            """Image b's rows i..e, every tap of a pixel: the softmax's sum, x's scatter and
            the features' gradient, and a band of all the image's rows the head's gradients."""
            one = e - i == h
            v = rebuild(b, 0, k2, i, e) if inner is not None or gxp is not None else None
            if gxp is not None:
                _scatter_window(g[b:b + 1, :, i:e], v.reshape(1, k2, e - i, w), k,
                                gxp[b:b + 1, :, i:e + 2 * r])
            if inner is not None:
                add_inner(b, i, e, v)
            if df is not None or one and head_grads:
                gv = field_grad(b, 0, k2, i, e, v)
                if one and head_grads:
                    tap_grads(b, 0, k2, gv)
                if df is not None:
                    np.matmul(wmat.T, gv[0], out=df[b, :, i * w:e * w])

        def tap_pass(b, t0, t1):
            """Image b's taps t0..t1, every pixel of a tap: the head's gradients."""
            v = None
            if softmax:
                v = rebuild(b, t0, t1, 0, h)
                v[0, :, px - tail.shape[2]:] = tail[b, t0:t1]
            tap_grads(b, t0, t1, field_grad(b, t0, t1, 0, h, v))

        for b in range(n):
            for i, e in bands:
                band_pass(b, i, e)
            if len(bands) > 1 and head_grads:
                for t0, t1 in taps:
                    tap_pass(b, t0, t1)
        if db is not None:
            accumulate_grad(bn, db)
        if dw is not None:
            accumulate_grad(wn, dw.reshape(wd.shape))
        if df is not None:
            accumulate_grad(fn, df.reshape(fd.shape))
        if gxp is not None:
            accumulate_grad(xn, _collapse_replication(gxp, r, r))

    return make_op(out_data, (x, feats, weights, bias), bwd, "kpn_filter")


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
    xp = edge_pad(x, r, r, np.empty(x.shape[:-2] + (h + 2 * r, w + 2 * r)))
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
