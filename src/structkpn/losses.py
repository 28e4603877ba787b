"""Structure-aware composite loss: per-pixel L1/L2/SSIM blended by gradient stats.

Each pixel gets sum-to-one weights (gamma1, gamma2, gamma3) from a softmax of
[coherence*sigma_l2, sigma_l1, strength], so strong coherent edges lean on L2,
fine high-strength structure on SSIM, and flat regions on L1. The total loss
averages (weighted term + plain L1)/2 over all pixels. Weights are computed
from the clean image only and are constants during backprop; gradients flow to
the denoised image through the L1/L2 terms and a windowed per-pixel SSIM map.
"""

from dataclasses import dataclass

import numpy as np

from .gradstats import GradStatsMap
from .tensor import (Tensor, ShapeError, abs_val, add, mul, reduce_mean, reduce_sum, sub,
                     window_filter)

__all__ = [
    "SsimConstants",
    "LossWeights",
    "l1_pixel",
    "l2_pixel",
    "ssim_from_moments",
    "ssim_map",
    "ssim_patch",
    "loss_weights",
    "struct_loss",
]


@dataclass(frozen=True)
class SsimConstants:
    """SSIM stabilizers and window; defaults assume [0,1] data (L = 1)."""

    c1: float = 1e-4          # (0.01 * L)^2
    c2: float = 9e-4          # (0.03 * L)^2
    window: int = 11
    kind: str = "uniform"     # "uniform" | "gaussian"
    gaussian_sigma: float = 1.5

    @classmethod
    def from_range(cls, data_range=1.0, window=11, kind="uniform", gaussian_sigma=1.5):
        return cls(c1=(0.01 * data_range) ** 2, c2=(0.03 * data_range) ** 2,
                   window=window, kind=kind, gaussian_sigma=gaussian_sigma)


def window_vector(k, kind="uniform", gaussian_sigma=1.5):
    """Normalized 1-D window; the 2-D window is its outer product."""
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    if kind == "gaussian":
        x = np.arange(k, dtype=np.float64) - (k - 1) / 2.0
        g = np.exp(-(x * x) / (2.0 * gaussian_sigma ** 2))
        return g / g.sum()
    raise ValueError(f"unknown SSIM window kind {kind!r}")


def window_weights(shape, kind="uniform", gaussian_sigma=1.5):
    gr = window_vector(shape[0], kind, gaussian_sigma)
    gc = window_vector(shape[1], kind, gaussian_sigma)
    return np.outer(gr, gc)


@dataclass
class LossWeights:
    """Per-pixel sum-to-one blend weights (L2, L1, SSIM)."""

    gamma1: np.ndarray   # L2 weight
    gamma2: np.ndarray   # L1 weight
    gamma3: np.ndarray   # SSIM weight
    sigma_l2: float
    sigma_l1: float


def _as_like(y, ref):
    """Lift a target (Tensor, array, or scalar) to a Tensor shaped like ref."""
    if isinstance(y, Tensor):
        return y
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(ref.data.shape, float(arr))
    return Tensor(arr)


def l1_pixel(yhat, y):
    """|yhat - y| per element; subgradient 0 at equality."""
    if isinstance(yhat, Tensor):
        return abs_val(sub(yhat, _as_like(y, yhat)))
    return np.abs(np.asarray(yhat, dtype=np.float64) - y)


def l2_pixel(yhat, y):
    """(yhat - y)^2 per element."""
    if isinstance(yhat, Tensor):
        d = sub(yhat, _as_like(y, yhat))
        return mul(d, d)
    d = np.asarray(yhat, dtype=np.float64) - y
    return d * d


def ssim_from_moments(mp, mq, mpp, mqq, mpq, consts):
    """SSIM from window means (mp, mq) and raw second moments E[p^2], E[q^2], E[pq].

    Written with operators only, so it maps ndarrays to ndarrays and Tensors
    to a differentiable Tensor.
    """
    sp = mpp - mp * mp
    sq = mqq - mq * mq
    spq = mpq - mp * mq
    num = (2.0 * mp * mq + consts.c1) * (2.0 * spq + consts.c2)
    den = (mp * mp + mq * mq + consts.c1) * (sp + sq + consts.c2)
    return num / den


def ssim_map(p, q, consts=SsimConstants()):
    """Per-pixel SSIM of two (N,1,H,W) Tensors, windows edge-replicated past the borders."""
    vec = window_vector(consts.window, consts.kind, consts.gaussian_sigma)
    return ssim_from_moments(window_filter(p, vec), window_filter(q, vec),
                             window_filter(p * p, vec), window_filter(q * q, vec),
                             window_filter(p * q, vec), consts)


def ssim_patch(p, q, consts=SsimConstants()):
    """Single-window SSIM of two equally-shaped patches, in (-1, 1].

    Window statistics use the (uniform by default) normalized window over the
    whole patch. Tensor input gives a differentiable scalar Tensor; plain
    arrays give a float.
    """
    pt = p if isinstance(p, Tensor) else Tensor(p)
    qt = q if isinstance(q, Tensor) else Tensor(q)
    if pt.data.shape != qt.data.shape:
        raise ShapeError(f"ssim_patch: patch shapes {pt.data.shape} != {qt.data.shape}")
    w = Tensor(window_weights(pt.data.shape[-2:], consts.kind, consts.gaussian_sigma)
               .reshape(pt.data.shape))
    s = ssim_from_moments(reduce_sum(pt * w), reduce_sum(qt * w), reduce_sum(pt * pt * w),
                          reduce_sum(qt * qt * w), reduce_sum(pt * qt * w), consts)
    return s if isinstance(p, Tensor) or isinstance(q, Tensor) else s.item()


def loss_weights(stats: GradStatsMap, sigma_l2=1.8, sigma_l1=0.35):
    """Per-pixel softmax of [mu*sigma_l2, sigma_l1, strength] -> (g1, g2, g3).

    Depends only on ground-truth statistics; the maps are constants w.r.t.
    the denoised image during backprop.
    """
    z = np.stack([stats.coherence * sigma_l2,
                  np.full_like(stats.strength, sigma_l1),
                  stats.strength], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    g = e / e.sum(axis=-1, keepdims=True)
    return LossWeights(gamma1=g[..., 0], gamma2=g[..., 1], gamma3=g[..., 2],
                       sigma_l2=sigma_l2, sigma_l1=sigma_l1)


def _as_weight_stack(weights, n, h, w):
    if isinstance(weights, LossWeights):
        weights = [weights] * n if n > 1 else [weights]
    if len(weights) != n:
        raise ShapeError(f"struct_loss: {len(weights)} weight maps for batch of {n}")
    maps = []
    for gname in ("gamma1", "gamma2", "gamma3"):
        m = np.stack([getattr(wt, gname) for wt in weights])[:, None, :, :]
        if m.shape != (n, 1, h, w):
            raise ShapeError(f"struct_loss: weight map shape {m.shape[2:]} != image {h}x{w}")
        maps.append(m)
    return maps


def struct_loss(yhat, y, weights, consts=SsimConstants()):
    """Structure-aware loss over an (N,1,H,W) batch; differentiable w.r.t. yhat.

    Per pixel: (g1*L2 + g2*L1 - g3*SSIM + L1) / 2, averaged over every pixel.
    The SSIM term is the per-pixel windowed map with edge-replicated borders;
    ``weights`` is one LossWeights (or one per batch item) precomputed from y.
    """
    if not isinstance(yhat, Tensor):
        yhat = Tensor(yhat)
    ydata = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if yhat.data.ndim != 4 or yhat.data.shape[1] != 1:
        raise ShapeError(f"struct_loss: expected (N,1,H,W), got {yhat.data.shape}")
    if ydata.shape != yhat.data.shape:
        raise ShapeError(
            f"struct_loss: prediction {yhat.data.shape} vs target {ydata.shape}")
    n, _, h, w = yhat.data.shape
    g1m, g2m, g3m = _as_weight_stack(weights, n, h, w)

    yt = Tensor(ydata)
    diff = sub(yhat, yt)
    l1_map = abs_val(diff)
    l2_map = mul(diff, diff)
    blended = sub(add(mul(Tensor(g1m), l2_map), mul(Tensor(g2m), l1_map)),
                  mul(Tensor(g3m), ssim_map(yhat, yt, consts)))
    return mul(reduce_mean(add(blended, l1_map)), 0.5)
