"""Per-pixel gradient strength/coherence statistics of a ground-truth image.

For every pixel, the gradients of the surrounding k_r x k_r patch are stacked
into a (k_r^2, 2) matrix G; the eigenvalues lam1 >= lam2 >= 0 of the 2x2
structure tensor G^T G (the squared singular values of G) give the gradient
strength and the coherence (sqrt(lam1)-sqrt(lam2))/(sqrt(lam1)+sqrt(lam2)).
Strength defaults to sqrt(lam1)/k_r so it stays commensurate with the
coherence-scale constants fed to the loss-weight softmax on [0,1] images;
the raw eigenvalue is available via ``normalization="raw"``.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import box_filter

__all__ = [
    "GradStatsMap",
    "image_gradients",
    "structure_tensor_eigs",
    "structure_stats",
    "stats_map",
    "region_class_map",
    "REGION_FLAT",
    "REGION_FINE",
    "REGION_EDGE",
    "COHERENCE_EPS",
    "SIGMA_L2",
    "SIGMA_L1",
    "STRENGTH_NORMALIZATION",
]

# Degenerate flat patch: coherence is defined as 0 when sqrt(l1)+sqrt(l2) < eps.
COHERENCE_EPS = 1e-12

REGION_FLAT = 0   # L1-dominated
REGION_FINE = 1   # SSIM-dominated
REGION_EDGE = 2   # L2-dominated

# The loss-weight statistics: the softmax scales of coherence (L2) and of the
# flat-region constant (L1), and the strength normalisation; every default of
# this module, of ``losses.loss_weights`` and of ``TrainConfig`` reads these.
SIGMA_L2 = 1.8
SIGMA_L1 = 0.35
STRENGTH_NORMALIZATION = "sqrt-over-kr"


@dataclass
class GradStatsMap:
    """Per-pixel strength / coherence maps for one image."""

    strength: np.ndarray      # (H, W), >= 0
    coherence: np.ndarray     # (H, W), in [0, 1]
    patch_size: int           # k_r, odd


def image_gradients(img):
    """Central-difference gradients with edge replication.

    gx(m,n) = (img(m,n+1) - img(m,n-1)) / 2 along columns, gy along rows;
    out-of-range neighbours replicate the nearest edge pixel. Requires an
    image of at least 3x3.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError(f"image_gradients needs an image of at least 3x3, got {img.shape}")
    pad = np.pad(img, 1, mode="edge")
    gx = (pad[1:-1, 2:] - pad[1:-1, :-2]) * 0.5
    gy = (pad[2:, 1:-1] - pad[:-2, 1:-1]) * 0.5
    return gx, gy


def structure_tensor_eigs(g):
    """Eigenvalues (lam1 >= lam2 >= 0) of G^T G for a (rows, 2) gradient matrix.

    Closed form from trace/determinant of the 2x2 structure tensor; equal to
    the squared singular values of G.
    """
    g = np.asarray(g, dtype=np.float64)
    gx, gy = g[:, 0], g[:, 1]
    return _eigs_from_moments(gx @ gx, gx @ gy, gy @ gy)


def _eigs_from_moments(sxx, sxy, syy):
    half_tr = 0.5 * (sxx + syy)
    disc = np.sqrt(np.maximum((0.5 * (sxx - syy)) ** 2 + sxy * sxy, 0.0))
    lam1 = half_tr + disc
    lam2 = np.maximum(half_tr - disc, 0.0)
    return lam1, lam2


def _coherence(lam1, lam2):
    s1 = np.sqrt(lam1)
    s2 = np.sqrt(lam2)
    denom = s1 + s2
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = np.where(denom < COHERENCE_EPS, 0.0, (s1 - s2) / np.where(denom == 0, 1.0, denom))
    return mu


def _normalize_strength(lam1, k_r, normalization):
    if normalization == "sqrt-over-kr":
        return np.sqrt(lam1) / k_r
    if normalization == "raw":
        return lam1
    raise ValueError(f"unknown strength normalization {normalization!r}")


def structure_stats(g, normalization=STRENGTH_NORMALIZATION):
    """(strength, coherence) for one flattened patch-gradient matrix.

    The patch size is recovered from the row count (rows = k_r^2).
    """
    g = np.asarray(g, dtype=np.float64)
    k_r = int(round(np.sqrt(g.shape[0])))
    lam1, lam2 = structure_tensor_eigs(g)
    return float(_normalize_strength(lam1, k_r, normalization)), float(_coherence(lam1, lam2))


def stats_map(img, k_r, normalization=STRENGTH_NORMALIZATION):
    """Per-pixel structure stats over k_r x k_r patches of a [0,1] image.

    Patches are replicated past the borders. Intended for the ground-truth
    (clean) image only; loss weights derived from these maps are constants
    during training.
    """
    if k_r % 2 == 0 or k_r < 1:
        raise ValueError(f"patch size k_r must be odd and positive, got {k_r}")
    gx, gy = image_gradients(img)
    # the structure tensor sums the window: k_r^2 times box_filter's mean
    sxx, sxy, syy = box_filter(np.stack([gx * gx, gx * gy, gy * gy]), k_r) * (k_r * k_r)
    lam1, lam2 = _eigs_from_moments(sxx, sxy, syy)
    strength = _normalize_strength(lam1, k_r, normalization)
    coherence = _coherence(lam1, lam2)
    return GradStatsMap(strength=strength, coherence=coherence, patch_size=k_r)


def region_class_map(stats, sigma_l2=SIGMA_L2, sigma_l1=SIGMA_L1):
    """Classify each pixel by its dominant loss component.

    The loss-weight softmax acts on [mu*sigma_l2, sigma_l1, strength]; softmax
    preserves order, so the label is the argmax of the raw triple. Ties break
    edge > fine > flat. Returns an (H, W) int array of REGION_* labels.
    """
    e = stats.coherence * sigma_l2
    f = stats.strength
    labels = np.full(e.shape, REGION_FLAT, dtype=np.int64)
    labels[f >= sigma_l1] = REGION_FINE
    labels[(e >= f) & (e >= sigma_l1)] = REGION_EDGE
    return labels
