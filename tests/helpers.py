"""Independent slow-path oracles shared by the tests.

The loop oracles deliberately avoid the library's vectorized code: plain
Python loops and float arithmetic only, so agreement is meaningful.
``kpn_field_oracle`` is the model as public ops with the filter field held
whole, the way ``kpn_apply`` ran before its head and filtering became one op.
``read_minmax`` reads the sidecar that ``fileio.write_scaled_pgm`` writes,
``traced`` measures what a call allocates, ``openblas`` opens the OpenBLAS
that numpy ships, ``one_blas_thread`` runs a block at one of its threads, and
``default_checkpoint`` saves a default-architecture model that denoises.
"""

import contextlib
import ctypes
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np

from structkpn.kpn import build_model
from structkpn.tensor import add, conv2d, local_conv, relu, softmax_vec
from structkpn.training import Checkpoint, TrainConfig, init_adam, save_checkpoint


def naive_local_conv(x, v):
    """Per-pixel filtering, one tap at a time, replicating out-of-range reads.

    x: (N,1,H,W), v: (N,k*k,H,W). out[m,n] += x[m-s, n-t] * v[(s+r)k+(t+r)]
    accumulated in channel order, matching the library's summation order.
    """
    n, _, h, w = x.shape
    k = int(round(v.shape[1] ** 0.5))
    r = k // 2
    out = np.zeros((n, 1, h, w))
    for b in range(n):
        for m in range(h):
            for col in range(w):
                acc = 0.0
                for s in range(-r, r + 1):
                    for t in range(-r, r + 1):
                        a = min(max(m - s, 0), h - 1)
                        bb = min(max(col - t, 0), w - 1)
                        c = (s + r) * k + (t + r)
                        acc += float(x[b, 0, a, bb]) * float(v[b, c, m, col])
                out[b, 0, m, col] = acc
    return out


def naive_conv2d(x, w, bias, groups=1):
    """Cross-correlation with edge replication, brute force."""
    n, cin, h, ww = x.shape
    cout, cin_g, kh, kw = w.shape
    cout_g = cout // groups
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, cout, h, ww))
    for b in range(n):
        for co in range(cout):
            gi = co // cout_g
            for m in range(h):
                for nn in range(ww):
                    acc = float(bias[co])
                    for ci in range(cin_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                a = min(max(m + dy - ph, 0), h - 1)
                                c = min(max(nn + dx - pw, 0), ww - 1)
                                acc += float(x[b, gi * cin_g + ci, a, c]) * float(w[co, ci, dy, dx])
                    out[b, co, m, nn] = acc
    return out


def naive_box_mean(x, k):
    """Mean of the k x k window around each pixel of a 2-D array, out-of-range
    reads replicating the nearest edge pixel (so a window may be wider than
    the image), one pixel at a time."""
    h, w = x.shape
    r = k // 2
    out = np.zeros((h, w))
    for m in range(h):
        for n in range(w):
            acc = 0.0
            for s in range(-r, r + 1):
                for t in range(-r, r + 1):
                    acc += float(x[min(max(m + s, 0), h - 1), min(max(n + t, 0), w - 1)])
            out[m, n] = acc / (k * k)
    return out


def direct_ssim(p, q, c1=1e-4, c2=9e-4, weights=None):
    """SSIM of two windows straight from the definition."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if weights is None:
        mp, mq = p.mean(), q.mean()
        sp = (p * p).mean() - mp * mp
        sq = (q * q).mean() - mq * mq
        spq = (p * q).mean() - mp * mq
    else:
        mp, mq = (p * weights).sum(), (q * weights).sum()
        sp = (p * p * weights).sum() - mp * mp
        sq = (q * q * weights).sum() - mq * mq
        spq = (p * q * weights).sum() - mp * mq
    return ((2 * mp * mq + c1) * (2 * spq + c2)) / ((mp ** 2 + mq ** 2 + c1) * (sp + sq + c2))


def kpn_field_oracle(params, x, cfg):
    """(head output, denoised batch) of a model, the head output held whole.

    params maps layer names to Tensors and x is an (N,1,H,W) Tensor. The
    layers are spelled out here from public ops (stem, residual blocks with
    the last one grouped, relu, 1x1 head) rather than read from the model's
    own layer list; a kpn head's k^2-channel field is softmax-normalised when
    configured and applied by ``local_conv``, a plain-cnn head added to x.
    """
    h = conv2d(x, params["stem.w"], params["stem.b"])
    for i in range(cfg.num_res_blocks):
        g = cfg.groups if i == cfg.num_res_blocks - 1 else 1
        inner = relu(conv2d(h, params[f"res{i}.conv1.w"], params[f"res{i}.conv1.b"], groups=g))
        h = add(h, conv2d(inner, params[f"res{i}.conv2.w"], params[f"res{i}.conv2.b"], groups=g))
    v = conv2d(relu(h), params["head.w"], params["head.b"])
    if cfg.model_kind == "plain-cnn":
        return v, add(x, v)
    if cfg.softmax_normalize_kernels:
        v = softmax_vec(v, axis=1)
    return v, local_conv(x, v)


def read_minmax(sidecar_path):
    """The (min, max) recorded in a ``write_scaled_pgm`` sidecar."""
    lines = Path(sidecar_path).read_text(encoding="ascii").split()
    if len(lines) != 4 or lines[0] != "min" or lines[2] != "max":
        raise ValueError(f"{sidecar_path}: malformed min/max sidecar")
    return float(lines[1]), float(lines[3])


Traced = namedtuple("Traced", "value peak held")


def traced(fn, *args, **kwargs):
    """Call fn under tracemalloc: its value, and the peak and the still-held
    bytes of the allocations traced during the call, past those at its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(value, peak - before, held - before)


def openblas():
    """The OpenBLAS that numpy ships and has loaded, opened by ``ctypes``, or None where it ships none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with the OpenBLAS that numpy ships at one thread, then restore its count.

    At more threads OpenBLAS divides each GEMM between them by the GEMM's
    shape, so a product cut by M or N can round otherwise than the whole
    one. Where numpy ships no such library the block runs as it is.
    """
    lib = openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        yield
        return
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def default_checkpoint(path):
    """Save a default-architecture checkpoint at path; returns (path, its params).

    The backbone is ``build_model``'s He init and the head a normalised
    Gaussian of sigma 0.5 in its bias, with its weights scaled by 1e-3 so the
    filters stay near that blur. The params returned are the C-ordered arrays
    that were saved.
    """
    cfg = TrainConfig(steps=0, val_interval=0)
    model_cfg = cfg.kpn_config()
    params = build_model(model_cfg, seed=0)
    x = np.arange(model_cfg.kernel_size) - model_cfg.kernel_size // 2
    blur = np.outer(np.exp(-x * x / 0.5), np.exp(-x * x / 0.5)).ravel()
    params["head.b"] = blur / blur.sum()
    params["head.w"] *= 1e-3
    state = init_adam(params)
    save_checkpoint(path, Checkpoint(config=cfg, step=0, params=params, adam_m=state.m,
                                     adam_v=state.v,
                                     rng_state=np.random.default_rng(0).bit_generator.state))
    return path, params
