"""Structure-aware composite loss: per-pixel L1/L2/SSIM blended by gradient stats.

Each pixel gets sum-to-one weights (gamma1, gamma2, gamma3) from a softmax of
[coherence*sigma_l2, sigma_l1, strength], so strong coherent edges lean on L2,
fine high-strength structure on SSIM, and flat regions on L1. The total loss
averages (weighted term + plain L1)/2 over all pixels. Weights are computed
from the clean image only and are constants during backprop; gradients flow to
the denoised image through the L1/L2 terms and the windowed per-pixel SSIM map,
``tensor.ssim_map``, one op with a closed-form backward.
"""

from dataclasses import dataclass

import numpy as np

from .gradstats import SIGMA_L1, SIGMA_L2, GradStatsMap
from .tensor import (Tensor, ShapeError, abs_val, add, mul, reduce_mean, reduce_sum,
                     ssim_from_moments, ssim_map, sub)

__all__ = [
    "SsimConstants",
    "LossWeights",
    "l1_pixel",
    "l2_pixel",
    "ssim_patch",
    "loss_weights",
    "struct_loss",
]


@dataclass(frozen=True)
class SsimConstants:
    """SSIM window size; the stabilizers assume [0,1] data (L = 1)."""

    window: int = 11
    c1 = 1e-4                 # (0.01 * L)^2
    c2 = 9e-4                 # (0.03 * L)^2


def window_weights(shape):
    """Normalized uniform 2-D window: the outer product of two 1-D ones."""
    return np.outer(np.full(shape[0], 1.0 / shape[0]), np.full(shape[1], 1.0 / shape[1]))


@dataclass
class LossWeights:
    """Per-pixel sum-to-one blend weights (L2, L1, SSIM)."""

    gamma1: np.ndarray   # L2 weight
    gamma2: np.ndarray   # L1 weight
    gamma3: np.ndarray   # SSIM weight


def l1_pixel(yhat, y):
    """|yhat - y| per element of two Tensors; subgradient 0 at equality."""
    return abs_val(sub(yhat, y))


def l2_pixel(yhat, y):
    """(yhat - y)^2 per element of two Tensors."""
    d = sub(yhat, y)
    return mul(d, d)


def ssim_patch(p, q, consts=SsimConstants()):
    """Single-window SSIM of two equally-shaped patches, in (-1, 1].

    Window statistics use the uniform normalized window over the whole
    patch. Tensor input gives a differentiable scalar Tensor; plain
    arrays give a float.
    """
    pt = p if isinstance(p, Tensor) else Tensor(p)
    qt = q if isinstance(q, Tensor) else Tensor(q)
    if pt.data.shape != qt.data.shape:
        raise ShapeError(f"ssim_patch: patch shapes {pt.data.shape} != {qt.data.shape}")
    w = Tensor(window_weights(pt.data.shape[-2:]).reshape(pt.data.shape))
    s = ssim_from_moments(reduce_sum(pt * w), reduce_sum(qt * w), reduce_sum(pt * pt * w),
                          reduce_sum(qt * qt * w), reduce_sum(pt * qt * w), consts)
    return s if isinstance(p, Tensor) or isinstance(q, Tensor) else s.item()


def loss_weights(stats: GradStatsMap, sigma_l2=SIGMA_L2, sigma_l1=SIGMA_L1):
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
    return LossWeights(gamma1=g[..., 0], gamma2=g[..., 1], gamma3=g[..., 2])


def _as_weight_stack(weights, n, h, w):
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
    ``yhat`` is a Tensor and ``weights`` a list of one LossWeights per batch
    item, precomputed from y.
    """
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
