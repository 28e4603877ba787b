"""PSNR and whole-image SSIM, plus checkpoint evaluation over a dataset.

PSNR of identical images is reported as +inf; evaluation means skip such
sentinel rows with a warning instead of propagating them. Image SSIM slides
the conventional 11x11 uniform window over valid positions only (no padding).
Both assume [0,1] data.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kpn import denoise_image
from .losses import SsimConstants, ssim_from_moments, window_weights

__all__ = ["psnr", "ssim_image", "EvalRow", "EvalReport", "evaluate", "EVAL_HEADER"]

EVAL_HEADER = ["file", "psnr_noisy", "ssim_noisy", "psnr_denoised", "ssim_denoised"]


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
    if a.ndim != 2:
        raise ValueError(f"ssim_image: expected 2-D images, got shape {a.shape}")
    consts = SsimConstants()
    window = consts.window
    if min(a.shape) < window:
        raise ValueError(
            f"ssim_image: image {a.shape} smaller than {window}x{window} window")
    # Valid-window tensordot moments, not losses.ssim_map: separable window sums
    # round differently, and perfbench/reference.json pins eval's ssim_noisy bit for bit.
    w2 = window_weights((window, window))
    wa = sliding_window_view(a, (window, window))
    wb = sliding_window_view(b, (window, window))
    axes = ([2, 3], [0, 1])
    return float(np.mean(ssim_from_moments(
        np.tensordot(wa, w2, axes=axes), np.tensordot(wb, w2, axes=axes),
        np.tensordot(wa * wa, w2, axes=axes), np.tensordot(wb * wb, w2, axes=axes),
        np.tensordot(wa * wb, w2, axes=axes), consts)))


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
    finite = [v for v in values if math.isfinite(v)]
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
    seed always produces the same report.
    """
    from .training import add_noise   # training imports this module

    named = sorted(dataset, key=lambda kv: kv[0])
    if not named:
        raise ValueError("evaluate: empty dataset")
    nm = ckpt.config.noise_model()
    model_cfg = ckpt.config.kpn_config()

    rows = []
    for i, (name, img) in enumerate(named):
        img = np.asarray(img, dtype=np.float64)
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
