"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are stored as contiguous float64 numpy arrays (N,C,H,W order for image
batches). Every operation that involves a gradient-requiring input records a
tape node (parents + backward closure); ``Tensor.backward()`` replays the tape
in reverse topological order with a fixed accumulation order, so repeated runs
on identical inputs are bit-identical at a fixed BLAS thread count.

``conv2d`` stays NCHW: every kernel tap is a contiguous shifted slice of the
flattened edge-padded input, so one batched GEMM covers all taps and groups.
"""

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
    "window_filter",
    "backward",
    "grad_check",
    "make_op",
    "accumulate_grad",
    "register_op",
    "registered_ops",
]


class ShapeError(ValueError):
    """Shape/contract violation; carries the offending axis when known."""

    def __init__(self, message, axis=None):
        super().__init__(message)
        self.axis = axis


def _mismatch_axis(sa, sb):
    if len(sa) != len(sb):
        return -1
    for i, (a, b) in enumerate(zip(sa, sb)):
        if a != b:
            return i
    return None


def _require_same_shape(op, a, b):
    ax = _mismatch_axis(a.data.shape, b.data.shape)
    if ax is not None:
        raise ShapeError(
            f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ"
            f" at axis {ax}" if ax >= 0 else
            f"{op}: operand ranks {a.data.ndim} and {b.data.ndim} differ",
            axis=ax,
        )


class Tensor:
    """A float64 array plus an optional tape node.

    Leaves created with ``requires_grad=True`` are trainable parameters;
    everything else is treated as a constant and recorded on the tape only
    when a gradient has to flow through it. Values are immutable once a
    graph has been built on top of them.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False, name=None):
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def is_finite(self):
        """Validity check: True iff the tensor holds no NaN/Inf."""
        return bool(np.isfinite(self.data).all())

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

    def abs(self):
        return abs_val(self)

    def relu(self):
        return relu(self)

    def mean(self):
        return reduce_mean(self)

    def sum(self):
        return reduce_sum(self)

    def softmax(self, axis=-1):
        return softmax_vec(self, axis=axis)

    # -- tape --------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar; fills ``.grad`` on the graph."""
        if self.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _toposort(root):
    """Post-order DFS; every node appears exactly once, parents first."""
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
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def accumulate_grad(t, g):
    """Add ``g`` into ``t.grad`` (no-op for constants). Never mutates ``g``."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


# Known differentiable op names; extensions (e.g. the local-convolution hook)
# register themselves so gradient-audit suites can enumerate full coverage.
_OP_REGISTRY = [
    "add", "sub", "mul", "div", "neg", "abs", "relu",
    "softmax", "reduce_mean", "reduce_sum", "conv2d",
]


def register_op(name):
    if name not in _OP_REGISTRY:
        _OP_REGISTRY.append(name)


def registered_ops():
    return tuple(_OP_REGISTRY)


def make_op(data, parents, backward_fn, op):
    """Create an op-output tensor; the extension hook for new operations.

    ``backward_fn(grad_out)`` must call :func:`accumulate_grad` on each
    gradient-requiring parent and must not mutate ``grad_out``. The tape node
    is dropped entirely when no parent requires a gradient.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._op = op
    else:
        out._op = op + "(const)"
    return out


# -- elementwise ops --------------------------------------------------------

def add(a, b):
    if not isinstance(b, Tensor):
        shift = float(b)

        def bwd(g):
            accumulate_grad(a, g)

        return make_op(a.data + shift, (a,), bwd, "add")

    _require_same_shape("add", a, b)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return make_op(a.data + b.data, (a, b), bwd, "add")


def sub(a, b):
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    _require_same_shape("sub", a, b)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return make_op(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b):
    if not isinstance(b, Tensor):
        scale = float(b)

        def bwd(g):
            accumulate_grad(a, g * scale)

        return make_op(a.data * scale, (a,), bwd, "mul")

    _require_same_shape("mul", a, b)

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return make_op(a.data * b.data, (a, b), bwd, "mul")


def div(a, b):
    _require_same_shape("div", a, b)
    out_data = a.data / b.data

    def bwd(g):
        accumulate_grad(a, g / b.data)
        accumulate_grad(b, -g * a.data / (b.data * b.data))

    return make_op(out_data, (a, b), bwd, "div")


def neg(a):
    def bwd(g):
        accumulate_grad(a, -g)

    return make_op(-a.data, (a,), bwd, "neg")


def abs_val(a):
    """Elementwise |x|; the subgradient at 0 is fixed to 0."""
    sign = np.sign(a.data)

    def bwd(g):
        accumulate_grad(a, g * sign)

    return make_op(np.abs(a.data), (a,), bwd, "abs")


def relu(a):
    """Elementwise max(0, x); the gradient at exactly 0 is fixed to 0."""
    mask = a.data > 0

    def bwd(g):
        accumulate_grad(a, g * mask)

    return make_op(np.maximum(a.data, 0.0), (a,), bwd, "relu")


def softmax_vec(v, axis=-1):
    """Max-shifted softmax along ``axis``; output sums to 1 there."""
    shifted = v.data - v.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate_grad(v, out_data * (g - inner))

    return make_op(out_data, (v,), bwd, "softmax")


# -- reductions --------------------------------------------------------------

def reduce_mean(a):
    if a.data.size == 0:
        raise ShapeError("reduce_mean of an empty tensor")
    n = a.data.size

    def bwd(g):
        accumulate_grad(a, np.broadcast_to(g / n, a.data.shape))

    return make_op(np.asarray(a.data.mean()), (a,), bwd, "reduce_mean")


def reduce_sum(a):
    def bwd(g):
        accumulate_grad(a, np.broadcast_to(g, a.data.shape))

    return make_op(np.asarray(a.data.sum()), (a,), bwd, "reduce_sum")


# -- convolution --------------------------------------------------------------

def _collapse_replication(gpad, ph, pw):
    """Fold the gradient of a replication-padded array back onto the source.

    Every padded cell reads the nearest in-bounds pixel, so its gradient
    accumulates there; the clip map is separable, rows then columns.
    """
    h = gpad.shape[2] - 2 * ph
    w = gpad.shape[3] - 2 * pw
    rows = gpad[:, :, ph:ph + h, :]
    if ph > 0:
        rows = rows.copy()
        rows[:, :, 0, :] += gpad[:, :, :ph, :].sum(axis=2)
        rows[:, :, -1, :] += gpad[:, :, ph + h:, :].sum(axis=2)
    out = rows[:, :, :, pw:pw + w]
    if pw > 0:
        out = out.copy()
        out[:, :, :, 0] += rows[:, :, :, :pw].sum(axis=3)
        out[:, :, :, -1] += rows[:, :, :, pw + w:].sum(axis=3)
    return out


def conv2d(x, weights, bias, groups=1):
    """Grouped 2-D cross-correlation with same-size edge-replication padding.

    x: (N, Cin, H, W); weights: (Cout, Cin/groups, kh, kw) with kh, kw odd;
    bias: (Cout,). Output: (N, Cout, H, W). Differentiable w.r.t. all three.

    Flat-shift layout: the edge-padded input is viewed as (N, Cin, Hp*Wp), in
    which tap (dy, dx) is the contiguous slice starting at dy*Wp + dx and
    output pixel (i, j) sits at flat index i*Wp + j. The stacked tap slices
    (for a 1x1 kernel, the input itself) meet every group's weights in one
    batched GEMM, and the H x W block is cropped from the padded row pitch.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be (N,C,H,W), got rank {x.data.ndim}")
    if weights.data.ndim != 4:
        raise ShapeError(f"conv2d: weights must be (Cout,Cin/groups,kh,kw), got rank {weights.data.ndim}")
    n, cin, h, w = x.data.shape
    cout, cin_g, kh, kw = weights.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel dims must be odd, got {kh}x{kw}", axis=2)
    if groups < 1 or cin % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} does not divide Cin={cin}", axis=1)
    if cout % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} does not divide Cout={cout}", axis=0)
    if cin_g * groups != cin:
        raise ShapeError(
            f"conv2d: weights expect Cin {cin_g * groups} (axis 1 = {cin_g} x {groups} groups),"
            f" input has Cin {cin}", axis=1)
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({cout},)", axis=0)

    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    taps = kh * kw
    span = (h - 1) * wp + w                      # flat index of the last output pixel + 1
    shifts = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    if taps == 1:
        cols = x.data.reshape(n, groups, cin_g, span)
    else:
        xf = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="edge").reshape(n, cin, hp * wp)
        cols = np.stack([xf[:, :, s:s + span] for s in shifts], axis=2).reshape(n, groups, cin_g * taps, span)
        del xf                                   # not held beside cols during the GEMM
    wmat = weights.data.reshape(groups, cout // groups, cin_g * taps)
    res = np.matmul(wmat, cols).reshape(n, cout, span)
    sn, sc, sx = res.strides
    out_data = np.lib.stride_tricks.as_strided(res, (n, cout, h, w), (sn, sc, wp * sx, sx)) \
        + bias.data[:, None, None]
    if not weights.requires_grad:
        cols = None

    def bwd(g):
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))
        gf = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wp - w))) if pw else g    # padded row pitch
        gf = gf.reshape(n, groups, cout // groups, h * wp)[..., :span]
        if weights.requires_grad:
            dw = np.matmul(gf, cols.swapaxes(-1, -2)).sum(axis=0)
            accumulate_grad(weights, dw.reshape(weights.data.shape))
        if x.requires_grad:
            dcols = np.matmul(wmat.swapaxes(-1, -2), gf).reshape(n, cin, taps, span)
            gxf = np.zeros((n, cin, hp * wp), dtype=np.float64)
            for t, s in enumerate(shifts):
                gxf[:, :, s:s + span] += dcols[:, :, t]
            accumulate_grad(x, _collapse_replication(gxf.reshape(n, cin, hp, wp), ph, pw))

    return make_op(out_data, (x, weights, bias), bwd, "conv2d")


def window_filter(x, vec):
    """Same-size separable filter of an (N,1,H,W) tensor by an odd-length 1-D window.

    Filters along rows, then along columns: two edge-replicated ``conv2d``
    calls, so the 2-D window is ``outer(vec, vec)`` and the gradient is conv2d's.
    """
    vec = np.asarray(vec, dtype=np.float64)
    zero = Tensor(np.zeros(1))
    rows = conv2d(x, Tensor(vec.reshape(1, 1, 1, -1)), zero)
    return conv2d(rows, Tensor(vec.reshape(1, 1, -1, 1)), zero)


# -- driver-level helpers -----------------------------------------------------

def backward(loss, params=None):
    """Run the reverse sweep; return ``{param: gradient}`` for the leaves.

    Parameters absent from the tape get zero gradients. With ``params=None``
    only the sweep runs (gradients stay on the tensors).
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
