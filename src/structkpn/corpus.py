"""Clean scenes and the noise that corrupts them.

Scenes are procedural grayscale images mixing flat areas, hard edges and
fine texture: a constant or ramp background, a few solid rectangles and
discs (sharp edges), optionally one disc of block-wave texture (period-4
checker, so central differences see a uniform gradient magnitude inside
it), and optionally a smooth additive blob. Values stay inside [0.02, 0.98]
so quantization to PGM never clips structure away. Training, validation and
evaluation corrupt them with ``add_noise`` (Gaussian, or Poisson-Gaussian).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio

__all__ = ["synth_image", "synth_corpus", "block_wave", "NoiseModel", "add_noise"]


def block_wave(n, period=4):
    """+-1 square wave: ``period//2`` high then ``period//2`` low, repeated."""
    idx = (np.arange(n) // (period // 2)) % 2
    return np.where(idx == 0, 1.0, -1.0)


def _coords(size):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    return yy, xx


def synth_image(size, rng):
    """One (size,size) scene in [0.02, 0.98] drawn from the given generator."""
    if size < 16:
        raise ValueError(f"synth_image: size must be >= 16, got {size}")
    yy, xx = _coords(size)

    if rng.random() < 0.5:
        img = np.full((size, size), rng.uniform(0.25, 0.55))
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        proj = (np.cos(theta) * xx + np.sin(theta) * yy) / max(size - 1, 1)
        proj = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-12)
        lo = rng.uniform(0.15, 0.4)
        img = lo + rng.uniform(0.2, 0.35) * proj

    for _ in range(int(rng.integers(2, 5))):
        val = rng.uniform(0.15, 0.85)
        if rng.random() < 0.5:
            h = int(rng.integers(size // 8, size // 2))
            w = int(rng.integers(size // 8, size // 2))
            top = int(rng.integers(0, size - h))
            left = int(rng.integers(0, size - w))
            img[top:top + h, left:left + w] = val
        else:
            rad = rng.uniform(size / 10, size / 4)
            cy = rng.uniform(rad, size - rad)
            cx = rng.uniform(rad, size - rad)
            img[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = val

    if rng.random() < 0.7:
        rad = rng.uniform(size / 8, size / 4)
        cy = rng.uniform(rad, size - rad)
        cx = rng.uniform(rad, size - rad)
        amp = rng.uniform(0.15, 0.3)
        mid = rng.uniform(0.4, 0.6)
        tex = mid + amp * np.outer(block_wave(size), block_wave(size))
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad
        img[mask] = tex[mask]

    if rng.random() < 0.5:
        sig = rng.uniform(size / 10, size / 5)
        cy = rng.uniform(0, size - 1)
        cx = rng.uniform(0, size - 1)
        amp = rng.uniform(0.1, 0.2) * (1.0 if rng.random() < 0.5 else -1.0)
        img = img + amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig * sig))

    return np.clip(img, 0.02, 0.98)


def synth_corpus(out_dir, count, size=96, seed=0):
    """Write ``count`` 16-bit PGM scenes to out_dir; returns the paths.

    Image i is drawn from default_rng([seed, i]), so any single image can be
    regenerated without producing the others.
    """
    if count < 1:
        raise ValueError(f"synth_corpus: count must be >= 1, got {count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        img = synth_image(size, np.random.default_rng([seed, i]))
        p = out_dir / f"img_{i:03d}.pgm"
        fileio.write_pgm(p, img)
        paths.append(p)
    return paths


NOISE_KINDS = ("gaussian", "poisson-gaussian")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "gaussian"
    sigma: float = 0.1
    poisson_scale: float = 0.0   # expected counts per unit intensity

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        # messages name the TrainConfig keys these values come from
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.sigma}")
        if not (np.isfinite(self.poisson_scale) and self.poisson_scale >= 0):
            raise ValueError(f"poisson_scale must be finite and >= 0, got {self.poisson_scale}")
        if self.kind == "poisson-gaussian" and self.poisson_scale == 0:
            raise ValueError("poisson-gaussian noise needs poisson_scale > 0")


def add_noise(img, nm, rng):
    """Corrupt a [0,1] image. sigma == 0 with gaussian kind is an exact copy.

    Poisson shot noise (when configured) scales intensities to expected
    counts, samples, and scales back; Gaussian read noise is then added and
    the result clipped to [0,1]. Draw order is fixed for reproducibility.
    """
    img = np.asarray(img, dtype=np.float64)
    out = img
    if nm.kind == "poisson-gaussian":
        counts = rng.poisson(np.clip(img, 0.0, None) * nm.poisson_scale)
        out = counts.astype(np.float64) / nm.poisson_scale
    if nm.sigma > 0:
        out = out + rng.normal(0.0, nm.sigma, img.shape)
    if out is img:
        return img.copy()
    return np.clip(out, 0.0, 1.0)
