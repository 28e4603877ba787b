"""Patch-based training loop with Adam, plus checkpoint serialization.

Each step samples random clean patches, corrupts them with the configured
noise model from ``corpus``, runs the model, and applies one Adam update.
Per-pixel loss weights come from the clean patch only. All randomness flows
through one generator seeded from the config, whose state rides along in
checkpoints. A fresh run is a resume from its step-0 state, and a resumed
run matches the uninterrupted one bit for bit. Validation noise uses
stateless per-image seeds, making curve entries comparable across steps.
``TrainConfig`` holds the settings a run varies; its fixed constants (Adam's,
the loss weights') stay out of config files and checkpoints.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import NoiseModel, add_noise
from .fileio import read_array, read_exact, read_u32, write_array
from .gradstats import SIGMA_L1, SIGMA_L2, STRENGTH_NORMALIZATION, stats_map
from .kpn import (KpnConfig, build_model, check_param_shapes, denoise_image, kpn_apply,
                  params_to_tensors)
from .losses import SsimConstants, l1_pixel, l2_pixel, loss_weights, struct_loss
from .metrics import _check_ssim_size, psnr, ssim_image
from .tensor import Tensor, backward, reduce_mean

__all__ = [
    "TrainConfig",
    "AdamState",
    "init_adam",
    "adam_step",
    "split_train_val",
    "sample_patch_pairs",
    "TrainingDiverged",
    "train",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "write_curve_csv",
    "CURVE_HEADER",
]

CKPT_MAGIC = b"SKPN"
CKPT_VERSION = 2
CURVE_HEADER = "step,loss,val_psnr,val_ssim"

# loss_kind -> loss(yhat, clean batch, weight maps, SSIM constants) -> scalar Tensor
LOSSES = {
    "l1": lambda yhat, y, wts, consts: reduce_mean(l1_pixel(yhat, Tensor(y))),
    "l2": lambda yhat, y, wts, consts: reduce_mean(l2_pixel(yhat, Tensor(y))),
    "struct": struct_loss,
}
LOSS_KINDS = tuple(LOSSES)


@dataclass(frozen=True)
class TrainConfig:
    model_kind: str = KpnConfig.model_kind
    loss_kind: str = "struct"
    seed: int = 0
    steps: int = 1000
    batch_size: int = 4
    patch_size: int = 48
    lr: float = 1e-4
    val_interval: int = 50
    kernel_size: int = KpnConfig.kernel_size
    stem_channels: int = KpnConfig.stem_channels
    num_res_blocks: int = KpnConfig.num_res_blocks
    groups: int = KpnConfig.groups
    softmax_kernels: bool = KpnConfig.softmax_normalize_kernels
    k_r: int = 11
    noise_kind: str = NoiseModel.kind
    noise_sigma: float = NoiseModel.sigma
    poisson_scale: float = NoiseModel.poisson_scale

    # Fixed constants, not fields: Adam's decays and stabilizer, and the loss-weight statistics
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    sigma_l2 = SIGMA_L2
    sigma_l1 = SIGMA_L1
    strength_normalization = STRENGTH_NORMALIZATION

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.k_r < 3 or self.k_r % 2 == 0:
            raise ValueError(f"k_r must be odd and >= 3, got {self.k_r}")
        # patches must fit one filter footprint plus the stats window
        if self.patch_size < self.kernel_size + self.k_r:
            raise ValueError(
                f"patch_size {self.patch_size} < kernel_size {self.kernel_size} "
                f"+ k_r {self.k_r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.val_interval < 0:
            raise ValueError(f"val_interval must be >= 0, got {self.val_interval}")
        self.kpn_config()
        self.noise_model()

    def kpn_config(self):
        return KpnConfig(kernel_size=self.kernel_size, stem_channels=self.stem_channels,
                         num_res_blocks=self.num_res_blocks, groups=self.groups,
                         softmax_normalize_kernels=self.softmax_kernels,
                         model_kind=self.model_kind)

    def noise_model(self):
        return NoiseModel(kind=self.noise_kind, sigma=self.noise_sigma,
                          poisson_scale=self.poisson_scale)

    def loss_constants(self):
        return SsimConstants(window=self.k_r)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params):
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()},
                     t=0)


def adam_step(params, grads, state, lr, beta1, beta2, eps):
    """One bias-corrected Adam update; returns fresh (params, state).

    Parameters update in sorted-name order so numerics never depend on dict
    construction history.
    """
    if set(grads) != set(params):
        raise KeyError(
            f"adam_step: gradient keys differ from parameter keys: "
            f"missing {sorted(set(params) - set(grads))}, "
            f"extra {sorted(set(grads) - set(params))}")
    t = state.t + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for name in sorted(params):
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        new_p[name] = params[name] - lr * (m / c1) / (np.sqrt(v / c2) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_p, AdamState(m=new_m, v=new_v, t=t)


def split_train_val(items):
    """Hold out the last fifth (at least one item) when there are >= 2 items."""
    n = len(items)
    if n < 2:
        return list(items), []
    n_val = max(1, n // 5)
    return list(items[:-n_val]), list(items[-n_val:])


def sample_patch_pairs(images, cfg, rng, with_weights=True):
    """Draw one batch: (noisy (B,1,p,p), clean (B,1,p,p), per-patch weights).

    Weight maps come from the clean crop's gradient statistics; pass
    with_weights=False to skip them for plain L1/L2 training.
    """
    p = cfg.patch_size
    nm = cfg.noise_model()
    xs, ys, wts = [], [], []
    for _ in range(cfg.batch_size):
        img = images[int(rng.integers(len(images)))]
        top = int(rng.integers(img.shape[0] - p + 1))
        left = int(rng.integers(img.shape[1] - p + 1))
        clean = np.ascontiguousarray(img[top:top + p, left:left + p])
        xs.append(add_noise(clean, nm, rng))
        ys.append(clean)
        if with_weights:
            stats = stats_map(clean, cfg.k_r, cfg.strength_normalization)
            wts.append(loss_weights(stats, cfg.sigma_l2, cfg.sigma_l1))
    return np.stack(xs)[:, None], np.stack(ys)[:, None], wts


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the 1-based step where it happened."""

    def __init__(self, step, value):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step
        self.value = value


def _validate(params, model_cfg, cfg, val_imgs):
    nm = cfg.noise_model()
    ps, ss = [], []
    for i, img in enumerate(val_imgs):
        noisy = add_noise(img, nm, np.random.default_rng([cfg.seed, 91, i]))
        den, _ = denoise_image(params, model_cfg, noisy)
        ps.append(psnr(img, den))
        ss.append(ssim_image(img, den))
    return float(np.mean(ps)), float(np.mean(ss))


def train(cfg, images, start=None):
    """Run (or resume) training; returns (final Checkpoint, loss curve rows).

    Curve rows are (step, loss, val_psnr, val_ssim) with None in the val slots
    on steps where validation did not run. Raises TrainingDiverged as soon as
    the loss goes non-finite. Resuming from a checkpoint (by default cfg's
    step-0 state) keeps that run's config (only the step target is taken from
    cfg) and is bit-identical to never having stopped.
    """
    if start is None:
        params = build_model(cfg.kpn_config(), cfg.seed)
        state = init_adam(params)
        start = Checkpoint(config=cfg, step=0, params=params, adam_m=state.m, adam_v=state.v,
                           rng_state=np.random.default_rng(cfg.seed).bit_generator.state)
    cfg = replace(start.config, steps=cfg.steps)
    model_cfg = cfg.kpn_config()
    imgs = [np.asarray(im, dtype=np.float64) for im in images]
    if not imgs:
        raise ValueError("train: no images given")
    for i, im in enumerate(imgs):
        if im.ndim != 2 or min(im.shape) < cfg.patch_size:
            raise ValueError(
                f"train: image {i} has shape {im.shape}, needs at least "
                f"{cfg.patch_size}x{cfg.patch_size}")
    train_imgs, val_imgs = split_train_val(imgs)
    if cfg.val_interval > 0:
        for i, im in enumerate(val_imgs, len(train_imgs)):
            _check_ssim_size(im, f"train: validation image {i}")   # ssim_image's window, not k_r

    params, state = start.params, AdamState(m=start.adam_m, v=start.adam_v, t=start.step)
    rng = np.random.default_rng()
    rng.bit_generator.state = start.rng_state
    del start   # so a fresh run's step-0 arrays die after step 1, as each later step's do

    consts = cfg.loss_constants()
    need_weights = cfg.loss_kind == "struct"
    curve = []
    for step in range(state.t + 1, cfg.steps + 1):
        xb, yb, wts = sample_patch_pairs(train_imgs, cfg, rng, with_weights=need_weights)
        tensors = params_to_tensors(params)
        yhat = kpn_apply(tensors, Tensor(xb), model_cfg)[1]     # unbound, the filter field dies here
        loss = LOSSES[cfg.loss_kind](yhat, yb, wts, consts)
        loss_val = float(loss.item())
        if not math.isfinite(loss_val):
            raise TrainingDiverged(step, loss_val)
        grad_by_tensor = backward(loss, list(tensors.values()))
        grads = {name: grad_by_tensor[t] for name, t in tensors.items()}
        params, state = adam_step(params, grads, state,
                                  cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        val_psnr = val_ssim = None
        if val_imgs and cfg.val_interval > 0 and (
                step % cfg.val_interval == 0 or step == cfg.steps):
            val_psnr, val_ssim = _validate(params, model_cfg, cfg, val_imgs)
        curve.append((step, loss_val, val_psnr, val_ssim))

    return Checkpoint(config=cfg, step=state.t, params=params, adam_m=state.m,
                      adam_v=state.v, rng_state=rng.bit_generator.state), curve


@dataclass
class Checkpoint:
    config: TrainConfig
    step: int
    params: dict
    adam_m: dict
    adam_v: dict
    rng_state: dict


def save_checkpoint(path, ckpt):
    """Write magic, version, JSON metadata, then named tensors (sorted).

    Saving the result of load_checkpoint reproduces the file byte for byte.
    """
    meta = {"config": asdict(ckpt.config), "step": int(ckpt.step),
            "rng_state": ckpt.rng_state}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for prefix, group in (("param.", ckpt.params),
                              ("adam.m.", ckpt.adam_m),
                              ("adam.v.", ckpt.adam_v)):
            for name in sorted(group):
                nb = (prefix + name).encode("utf-8")
                f.write(struct.pack("<I", len(nb)) + nb)
                write_array(f, group[name])
    return path


def load_checkpoint(path):
    """Read a checkpoint; any malformed or corrupt content raises ValueError naming ``path``."""
    path = Path(path)
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, = read_u32(f, path)
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob_len, = read_u32(f, path)
        blob = read_exact(f, blob_len, path)
        groups = {"param.": {}, "adam.m.": {}, "adam.v.": {}}
        while f.peek(1):
            nlen, = read_u32(f, path)
            name = read_exact(f, nlen, path).decode("utf-8", "replace")
            arr = read_array(f, path)
            for prefix in groups:
                if name.startswith(prefix):
                    groups[prefix][name[len(prefix):]] = arr
                    break
            else:
                raise ValueError(f"{path}: unknown tensor section {name!r}")

    try:
        cfg, step, rng_state = _parse_meta(blob)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: corrupt checkpoint metadata ({type(e).__name__}: {e})") from e
    model_cfg = cfg.kpn_config()
    for prefix, group in groups.items():
        try:
            check_param_shapes({name: a.shape for name, a in group.items()}, model_cfg)
        except ValueError as e:
            raise ValueError(f"{path}: {prefix}* tensors do not match the config ({e})") from None
    return Checkpoint(config=cfg, step=step, params=groups["param."],
                      adam_m=groups["adam.m."], adam_v=groups["adam.v."],
                      rng_state=rng_state)


def _parse_meta(blob):
    """(config, step, rng_state) from the JSON metadata; raises on any malformed field."""
    meta = json.loads(blob.decode("utf-8"))
    cfg_dict = meta["config"]
    known = {f.name for f in fields(TrainConfig)}
    extra = sorted(set(cfg_dict) - known)
    missing = sorted(known - set(cfg_dict))
    if extra or missing:
        raise ValueError(f"config keys mismatch: unknown {extra}, missing {missing}")
    np.random.PCG64().state = meta["rng_state"]        # rejects a malformed generator state
    return TrainConfig(**cfg_dict), int(meta["step"]), meta["rng_state"]


def write_curve_csv(path, rows):
    """Loss curve as CSV; val columns are empty on steps without validation."""
    lines = [CURVE_HEADER]
    for step, loss, vp, vs in rows:
        cell_p = "" if vp is None else repr(float(vp))
        cell_s = "" if vs is None else repr(float(vs))
        lines.append(f"{step},{float(loss)!r},{cell_p},{cell_s}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return Path(path)
