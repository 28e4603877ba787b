"""PSNR and whole-image SSIM, plus checkpoint evaluation over a dataset.

PSNR of identical images is reported as +inf; evaluation means skip such
sentinel rows with a warning instead of propagating them. Image SSIM slides
the conventional 11x11 uniform window over valid positions only (no padding).
Both assume [0,1] data. Evaluation corrupts each clean image with the
checkpoint's noise model from ``corpus``.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import add_noise
from .kpn import denoise_image
from .losses import SsimConstants, window_weights
from .tensor import ssim_from_moments

__all__ = ["psnr", "ssim_image", "EvalRow", "EvalReport", "evaluate", "EVAL_HEADER"]

EVAL_HEADER = ["file", "psnr_noisy", "ssim_noisy", "psnr_denoised", "ssim_denoised"]

# _window_moments works in bands of about this many output pixels (rounded down
# to a multiple of 4 rows, at least 4): about 1 MB of window copies per moment,
# whatever the image size.
_BAND_PIXELS = 1024


def psnr(reference, test):
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shapes {a.shape} and {b.shape} differ")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim_image(reference, test):
    """Mean SSIM over all fully-interior window positions of two 2-D images."""
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim_image: shapes {a.shape} and {b.shape} differ")
    _check_ssim_size(a, "ssim_image: image")
    consts = SsimConstants()
    return float(np.mean(ssim_from_moments(*_window_moments(a, b, consts.window), consts)))


def _check_ssim_size(img, what):
    """Raise a ValueError that starts with ``what`` unless img is 2-D and fits the SSIM window."""
    window = SsimConstants().window
    if img.ndim != 2 or min(img.shape) < window:
        raise ValueError(f"{what} has shape {img.shape}, needs a 2-D image of at least "
                         f"{window}x{window} pixels for the SSIM window")


def _window_moments(a, b, window):
    """(5, ho, wo) valid-window means of a, b, a*a, b*b and a*b.

    One BLAS gemv per moment, not the ``tensor.box_filter`` that
    ``tensor.ssim_map`` runs: its separable shifted adds round differently, and
    perfbench/reference.json pins eval's ssim_noisy bit for bit. The gemv
    runs over bands of output rows, so the 121x window copies stay
    cache-sized. OpenBLAS's dgemv_t computes outputs in groups of 4 with
    its own tail path. A band starting at a multiple of 4 rows starts at a
    multiple of 4 pixels, a group boundary of the whole-image call, so at one
    BLAS thread every moment rounds exactly as in one call; a band of 1 to 3
    rows can start off a group boundary and round differently. With more
    threads OpenBLAS also splits each call between threads, at points that
    need not be multiples of 4.
    """
    ho, wo = a.shape[0] - window + 1, a.shape[1] - window + 1
    w_col = window_weights((window, window)).reshape(-1, 1)
    moments = np.empty((5, ho, wo))
    band = max(4, _BAND_PIXELS // wo // 4 * 4)
    for i in range(0, ho, band):
        j = min(i + band, ho)
        sa, sb = a[i:j + window - 1], b[i:j + window - 1]
        for m, x in enumerate((sa, sb, sa * sa, sb * sb, sa * sb)):
            cols = sliding_window_view(x, (window, window)).reshape(-1, window * window)
            np.dot(cols, w_col, out=moments[m, i:j].reshape(-1, 1))
    return moments


@dataclass
class EvalRow:
    file: str
    psnr_noisy: float
    ssim_noisy: float
    psnr_denoised: float
    ssim_denoised: float


@dataclass
class EvalReport:
    rows: list
    mean_psnr_noisy: float
    mean_ssim_noisy: float
    mean_psnr_denoised: float
    mean_ssim_denoised: float

    def to_csv(self, path):
        path = Path(path)
        with open(path, "w", newline="", encoding="ascii") as f:
            wr = csv.writer(f)
            wr.writerow(EVAL_HEADER)
            for r in self.rows:
                wr.writerow([r.file, repr(r.psnr_noisy), repr(r.ssim_noisy),
                             repr(r.psnr_denoised), repr(r.ssim_denoised)])
        return path


def _finite_mean(values, label):
    """Mean without the +inf of identical images; a nan (non-finite image) stays in."""
    finite = [v for v in values if v != math.inf]
    if len(finite) < len(values):
        warnings.warn(f"{label}: {len(values) - len(finite)} infinite PSNR value(s) "
                      "excluded from the mean (identical images)")
    if not finite:
        return math.inf
    return float(np.mean(finite))


def evaluate(ckpt, dataset, seed=0):
    """Denoise every (name, image) pair of a dataset and score it against the clean copy.

    Pairs are processed in name order. Image i is corrupted with the
    checkpoint's training noise drawn from default_rng([seed, i]), so a given
    seed always produces the same report. Every image is checked before any is
    denoised: each must be 2-D and at least the SSIM window on each side.
    """
    named = sorted(dataset, key=lambda kv: kv[0])
    if not named:
        raise ValueError("evaluate: empty dataset")
    images = []
    for name, img in named:
        img = np.asarray(img, dtype=np.float64)
        _check_ssim_size(img, f"evaluate: {name}")
        images.append((name, img))
    nm = ckpt.config.noise_model()
    model_cfg = ckpt.config.kpn_config()

    rows = []
    for i, (name, img) in enumerate(images):
        noisy = add_noise(img, nm, np.random.default_rng([seed, i]))
        den, _ = denoise_image(ckpt.params, model_cfg, noisy)
        rows.append(EvalRow(file=name,
                            psnr_noisy=psnr(img, noisy),
                            ssim_noisy=ssim_image(img, noisy),
                            psnr_denoised=psnr(img, den),
                            ssim_denoised=ssim_image(img, den)))
    return EvalReport(
        rows=rows,
        mean_psnr_noisy=_finite_mean([r.psnr_noisy for r in rows], "psnr_noisy"),
        mean_ssim_noisy=float(np.mean([r.ssim_noisy for r in rows])),
        mean_psnr_denoised=_finite_mean([r.psnr_denoised for r in rows], "psnr_denoised"),
        mean_ssim_denoised=float(np.mean([r.ssim_denoised for r in rows])),
    )
