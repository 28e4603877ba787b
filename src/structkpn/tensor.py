"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are stored as contiguous float64 numpy arrays (N,C,H,W order for image
batches). Every operation that involves a gradient-requiring input records a
tape node (parents + backward closure); ``Tensor.backward()`` replays the tape
in reverse topological order with a fixed accumulation order, so repeated runs
on identical inputs are bit-identical at a fixed BLAS thread count.

``conv2d`` pads its input once into a channel-major buffer holding the batch
end to end, so each kernel tap is one strided slice of it and the output
accumulates one GEMM per tap (or small chunk of taps), with no column buffer,
over cache-sized blocks written straight into the output.
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
    """Shape/contract violation."""


def _require_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


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
    def bwd(g):
        accumulate_grad(a, g * np.sign(a.data))

    return make_op(np.abs(a.data), (a,), bwd, "abs")


def relu(a):
    """Elementwise max(0, x); the gradient at exactly 0 is fixed to 0."""
    def bwd(g):
        accumulate_grad(a, g * (a.data > 0))

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


# Adding a tap's GEMM into the output costs a pass over its Cout_g rows, and
# stacking a tap into a chunk one over its Cin_g rows; a GEMM with a tiny
# inner size (Cin_g = 1) is also slow. So a chunk stacks taps until its inner
# size reaches Cout_g and at least this many rows.
_MIN_GEMM_K = 8

# The forward pass accumulates its tap GEMMs over blocks of about this many
# output values (Cout x padded-pitch columns), 2 MB a block. Every tap re-reads
# the block and its one temporary, so they must stay in cache rather than
# stream through memory. Sizing by values, not columns, lets a small conv put
# a whole batch in one block instead of making many tiny GEMM calls.
_BLOCK_VALUES = 262144


def conv2d(x, weights, bias, groups=1):
    """Grouped 2-D cross-correlation with same-size edge-replication padding.

    x: (N, Cin, H, W); weights: (Cout, Cin/groups, kh, kw) with kh, kw odd;
    bias: (Cout,). Output: (N, Cout, H, W). Differentiable w.r.t. all three.

    Channel-major, batch-folded layout: the input is edge-padded once into
    xf = (groups, Cin/groups, N*Hp*Wp), so the N padded images sit end to end
    and output pixel (b, i, j) is flat index (b*Hp + i)*Wp + j. Tap (dy, dx) is
    then the strided slice of xf starting at dy*Wp + dx, for the whole batch at
    once. The output accumulates one GEMM per chunk of taps: one tap (a view
    of xf), or a small stack of taps when Cin/groups is below Cout/groups or
    ``_MIN_GEMM_K`` (all 9 for the stem). It does so block by block, each
    about ``_BLOCK_VALUES`` output values of whole padded rows (a band of one
    image, or several whole images), then adds the bias to the block and
    copies its cropped rows into the output; a 1x1 kernel runs one GEMM per
    image straight into the output. The backward pass keeps only xf and runs
    over the whole batch. Columns between images are computed, cropped away
    and get zero gradient.
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
    taps = kh * kw
    shifts = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    step = -(-max(cout_g, _MIN_GEMM_K) // cin_g)            # taps per chunk
    # (weight columns, shifts) per chunk of taps
    chunks = [(slice(t * cin_g, min(t + step, taps) * cin_g), shifts[t:t + step])
              for t in range(0, taps, step)]
    xt = x.data.transpose(1, 0, 2, 3)            # a 1x1 kernel at N = 1 reshapes it without a copy
    xf = (np.pad(xt, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="edge") if taps > 1
          else xt).reshape(groups, cin_g, m)
    # column t*cin_g + c holds the weight of input channel c at tap t: the row order of rows()
    wmat = weights.data.reshape(groups, cout_g, cin_g, taps).swapaxes(2, 3) \
        .reshape(groups, cout_g, taps * cin_g)

    def rows(ss, base=0, length=span):
        if len(ss) == 1:
            return xf[..., base + ss[0]:base + ss[0] + length]
        return np.stack([xf[..., base + s:base + s + length] for s in ss],
                        axis=1).reshape(groups, -1, length)

    out_data = np.empty((n, cout, h, w))
    if taps == 1:
        # hp, wp = h, w: image b's output is one contiguous (Cout, H*W) block
        for b in range(n):
            np.matmul(wmat, rows(shifts, b * h * w, h * w),
                      out=out_data[b].reshape(groups, cout_g, h * w))
        out_data += bias.data.reshape(cout, 1, 1)
    else:
        # A block is whole padded rows: a band of rows of one image, or as many
        # whole padded images as fit; its last row stops at column w. The
        # temporary has the block's row pitch too, since numpy adds arrays of
        # equal strides several times faster than arrays of unequal strides.
        per = _BLOCK_VALUES // (cout * hp * wp)            # images per block
        if per > 1:
            band, pitch = h, hp
        else:
            per = 1
            band = pitch = -(-h // -(-cout * h * wp // _BLOCK_VALUES))   # split evenly
        acc_buf = np.empty(cout * min(per, n) * pitch * wp)
        tmp_buf = np.empty_like(acc_buf) if len(chunks) > 1 else None
        for b in range(0, n, per):
            nb = min(per, n - b)
            for i in range(0, h, band):
                nr = min(band, h - i)
                base, length = (b * hp + i) * wp, ((nb - 1) * pitch + nr) * wp - (wp - w)
                full = cout * nb * pitch * wp
                acc = acc_buf[:full].reshape(groups, cout_g, -1)[..., :length]
                if tmp_buf is not None:
                    tmp = tmp_buf[:full].reshape(groups, cout_g, -1)[..., :length]
                for ks, ss in chunks:
                    if ks.start == 0:
                        np.matmul(wmat[..., ks], rows(ss, base, length), out=acc)
                    else:
                        np.matmul(wmat[..., ks], rows(ss, base, length), out=tmp)
                        acc += tmp
                acc += bias.data.reshape(groups, cout_g, 1)
                np.copyto(out_data[b:b + nb, :, i:i + nr],
                          acc_buf[:full].reshape(cout, nb, pitch, wp)[:, :, :nr, :w]
                          .transpose(1, 0, 2, 3))
    if not weights.requires_grad:
        xf = None

    def bwd(g):
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))
        gf = np.zeros((cout, n, hp, wp))
        gf[:, :, :h, :w] = g.transpose(1, 0, 2, 3)
        gf = gf.reshape(groups, cout_g, m)[..., :span]
        if weights.requires_grad:
            dw = np.empty_like(wmat)
            for ks, ss in chunks:
                np.matmul(gf, rows(ss).swapaxes(-1, -2), out=dw[..., ks])
            accumulate_grad(weights, dw.reshape(groups, cout_g, taps, cin_g).swapaxes(2, 3)
                            .reshape(weights.data.shape))
        if x.requires_grad:
            gxf = np.zeros((groups, cin_g, m))
            dx = np.empty((groups, min(step, taps) * cin_g, span))
            for ks, ss in chunks:
                d = dx[:, :ks.stop - ks.start]
                np.matmul(wmat[..., ks].swapaxes(-1, -2), gf, out=d)
                for j, s in enumerate(ss):
                    gxf[..., s:s + span] += d[:, j * cin_g:(j + 1) * cin_g]
            gxf = gxf.reshape(cin, n, hp, wp).transpose(1, 0, 2, 3)
            accumulate_grad(x, _collapse_replication(gxf, ph, pw))

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
