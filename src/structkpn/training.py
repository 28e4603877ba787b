"""Patch-based training loop with Adam, plus checkpoint serialization.

Each step samples random clean patches, corrupts them with the configured
noise model from ``corpus``, runs the model, and applies one Adam update.
Per-pixel loss weights come from the clean patch only. Every loss is a mean
of per-pixel terms of one image each, so a step runs the model, the loss
and the backward sweep over micro-batches of whole images and sums their
scaled losses and gradients: it holds one micro-batch's tape, not the
batch's. All randomness flows through one generator seeded from the
config, whose state rides along in checkpoints. A fresh run is a resume from its step-0 state, and a resumed
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
from .fileio import read_array, read_exact, read_u32, skip_array, write_array
from .gradstats import SIGMA_L1, SIGMA_L2, STRENGTH_NORMALIZATION, stats_map
from .kpn import (KpnConfig, build_model, check_param_shapes, denoise_image, kpn_apply,
                  params_to_tensors)
from .losses import SsimConstants, l1_pixel, l2_pixel, loss_weights, struct_loss
from .metrics import _check_ssim_size, psnr, ssim_image
from .tensor import _BLOCK_VALUES, StepArena, Tensor, _tap_major, backward, mul, reduce_mean

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
    construction history. The inputs are never mutated.
    """
    new_p, new_state = _copies(params), AdamState(_copies(state.m), _copies(state.v), state.t)
    _adam_update(new_p, grads, new_state, lr, beta1, beta2, eps)
    return new_p, new_state


def _copies(arrays):
    return {name: a.copy() for name, a in arrays.items()}


def _adam_update(params, grads, state, lr, beta1, beta2, eps):
    """``adam_step``'s update, written into ``params``, ``state.m`` and ``state.v``.

    Each array is updated in place with the operations, and so the bits, of
    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g and
    p = p - lr*(m/c1) / (sqrt(v/c2) + eps).
    """
    if set(grads) != set(params):
        raise KeyError(
            f"adam_step: gradient keys differ from parameter keys: "
            f"missing {sorted(set(params) - set(grads))}, "
            f"extra {sorted(set(grads) - set(params))}")
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for name in sorted(params):
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        step = np.divide(m, c1)
        step *= lr
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        params[name] -= step


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
    """Loss or a gradient became non-finite; carries the 1-based step where it happened.

    ``value`` is the step's loss, summed over the micro-batches run so far
    when the loss itself went non-finite; ``param`` names the parameter
    whose gradient went non-finite, or is None when the loss did.
    """

    def __init__(self, step, value, param=None):
        what = f"non-finite loss {value}" if param is None else \
            f"non-finite gradient of parameter {param!r} (loss {value})"
        super().__init__(f"{what} at step {step}")
        self.step = step
        self.value = value
        self.param = param


def _validate(params, model_cfg, cfg, val_imgs):
    nm = cfg.noise_model()
    ps, ss = [], []
    for i, img in enumerate(val_imgs):
        noisy = add_noise(img, nm, np.random.default_rng([cfg.seed, 91, i]))
        den, _ = denoise_image(params, model_cfg, noisy)
        ps.append(psnr(img, den))
        ss.append(ssim_image(img, den))
    return float(np.mean(ps)), float(np.mean(ss))


_FIELD_VALUES = 1 << 20      # a micro-batch's filter field, 8 MB: one 48^2 patch at k = 21


def _micro_batch_images(cfg):
    """Images per micro-batch, at least one: as many as keep one stem-width
    activation within a conv block's ``_BLOCK_VALUES`` values and the head's
    output (a kpn's k^2-a-pixel filter field) within ``_FIELD_VALUES``.

    One image at the default config; the whole batch at narrower or smaller
    ones, which then run exactly as one batch.
    """
    pixels = cfg.patch_size ** 2
    head = cfg.kernel_size ** 2 if cfg.model_kind == "kpn" else 1
    return max(1, min(_BLOCK_VALUES // (cfg.stem_channels * pixels),
                      _FIELD_VALUES // (head * pixels)))


def train(cfg, images, start=None):
    """Run (or resume) training; returns (final Checkpoint, loss curve rows).

    Curve rows are (step, loss, val_psnr, val_ssim) with None in the val slots
    on steps where validation did not run. Raises TrainingDiverged as soon as
    the loss goes non-finite, or a gradient does, which is checked before Adam
    so no parameter ever takes a non-finite update. Resuming from a checkpoint
    (by default cfg's step-0 state) keeps that run's config (only the step
    target is taken from cfg) and is bit-identical to never having stopped; a
    checkpoint read without its Adam moments cannot be resumed (ValueError).

    Each step samples its whole batch first, so the random draws do not
    depend on how it is split. It then runs forward, loss and sweep over
    micro-batches of ``_micro_batch_images(cfg)`` images, each part's loss
    scaled by its share of the batch, and sums the loss values and the
    gradients in batch order, each part's added in place into the first's;
    the loss and the summed gradients are checked and Adam runs once per
    step, with no part's leaves or gradients left but the sum. A batch that
    fits one micro-batch runs as one, with no scaling, so its bytes are
    those of a whole-batch step.

    Each step, from sampling to the Adam update, runs inside one
    ``StepArena``, which lends the ops their large arrays; the sweep frees
    each micro-batch's tape as it goes, so the buffers it hands back serve
    the next micro-batch's forward. Adam updates copies of ``start``'s
    arrays in place. Validation runs outside the arena, and the arena goes
    with this call.
    """
    if start is None:
        params = build_model(cfg.kpn_config(), cfg.seed)
        state = init_adam(params)
        start = Checkpoint(config=cfg, step=0, params=params, adam_m=state.m, adam_v=state.v,
                           rng_state=np.random.default_rng(cfg.seed).bit_generator.state)
    _check_moments(start, "train")
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

    # Adam updates these copies in place, so the caller's checkpoint never changes
    params = _copies(start.params)
    state = AdamState(_copies(start.adam_m), _copies(start.adam_v), start.step)
    rng = np.random.default_rng()
    rng.bit_generator.state = start.rng_state
    del start   # a fresh run's step-0 arrays die here

    consts = cfg.loss_constants()
    need_weights = cfg.loss_kind == "struct"
    n = cfg.batch_size
    per = _micro_batch_images(cfg)
    curve = []
    arena = StepArena()
    for step in range(state.t + 1, cfg.steps + 1):
        with arena:
            xb, yb, wts = sample_patch_pairs(train_imgs, cfg, rng, with_weights=need_weights)
            grads = None
            for b in range(0, n, per):
                e = min(b + per, n)
                tensors = params_to_tensors(params)
                yhat = kpn_apply(tensors, Tensor(xb[b:e]), model_cfg)
                loss = LOSSES[cfg.loss_kind](yhat, yb[b:e], wts[b:e], consts)
                if per < n:            # the batch mean: each part's mean weighted by its share
                    loss = mul(loss, (e - b) / n)
                value = float(loss.item())
                loss_val = value if b == 0 else loss_val + value
                if not math.isfinite(loss_val):
                    raise TrainingDiverged(step, loss_val)
                grad_by_tensor = backward(loss, list(tensors.values()))   # frees the tape
                if grads is None:
                    grads = {name: grad_by_tensor[t] for name, t in tensors.items()}
                else:
                    for name, t in tensors.items():
                        grads[name] += grad_by_tensor[t]
                del tensors, yhat, loss, grad_by_tensor   # the part's leaves and their grads
            for name in sorted(grads):
                if not np.isfinite(grads[name]).all():
                    raise TrainingDiverged(step, loss_val, name)
            _adam_update(params, grads, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        val_psnr = val_ssim = None
        if val_imgs and cfg.val_interval > 0 and (
                step % cfg.val_interval == 0 or step == cfg.steps):
            val_psnr, val_ssim = _validate(params, model_cfg, cfg, val_imgs)
        curve.append((step, loss_val, val_psnr, val_ssim))

    return Checkpoint(config=cfg, step=state.t, params=params, adam_m=state.m,
                      adam_v=state.v, rng_state=rng.bit_generator.state), curve


@dataclass
class Checkpoint:
    """A run's state; ``adam_m`` and ``adam_v`` are None when read without the moments."""

    config: TrainConfig
    step: int
    params: dict
    adam_m: dict
    adam_v: dict
    rng_state: dict


def save_checkpoint(path, ckpt):
    """Write magic, version, JSON metadata, then named tensors (sorted).

    Saving the result of load_checkpoint reproduces the file byte for byte;
    a checkpoint read without its Adam moments is a ValueError, as its file
    could not be resumed.
    """
    _check_moments(ckpt, "save_checkpoint")
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


def _check_moments(ckpt, caller):
    if ckpt.adam_m is None or ckpt.adam_v is None:
        raise ValueError(f"{caller}: the checkpoint has no Adam moments (adam.m.*, adam.v.*); "
                         "it was loaded with optimizer=False")


def load_checkpoint(path, optimizer=True):
    """Read a checkpoint; any malformed or corrupt content raises ValueError naming ``path``.

    With ``optimizer=False`` the Adam moments, two thirds of the payload,
    are seeked past rather than read, and ``adam_m`` and ``adam_v`` are
    None: enough to run the model, not to save or resume it. Each conv
    weight is then stored tap-major (``tensor._tap_major``), the usual
    (Cout, Cin/g, kh, kw) array as a view of the order the convs hand BLAS,
    so ``kpn.denoise_image`` reads it with no copy; a full load keeps C
    order, so resuming and the tape's ``Tensor`` copy nothing. Both reads
    walk every record with the same checks (each record's rank and dims, its
    payload fitting in the file, every group's shapes against the config),
    so a file loads under both or fails under both with the same error.
    """
    path = Path(path)
    groups = {"param.": {}, "adam.m.": {}, "adam.v.": {}}
    shapes = {prefix: {} for prefix in groups}
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, = read_u32(f, path)
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob_len, = read_u32(f, path)
        blob = read_exact(f, blob_len, path)
        while f.peek(1):
            nlen, = read_u32(f, path)
            name = read_exact(f, nlen, path).decode("utf-8", "replace")
            prefix = next((p for p in groups if name.startswith(p)), None)
            if prefix is None:
                raise ValueError(f"{path}: unknown tensor section {name!r}")
            key = name[len(prefix):]
            if optimizer or prefix == "param.":
                arr = read_array(f, path)
                shapes[prefix][key] = arr.shape
                groups[prefix][key] = arr if optimizer or arr.ndim != 4 else _tap_major(arr)
            else:
                shapes[prefix][key] = skip_array(f, path)

    try:
        cfg, step, rng_state = _parse_meta(blob)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: corrupt checkpoint metadata ({type(e).__name__}: {e})") from e
    model_cfg = cfg.kpn_config()
    for prefix, group in shapes.items():
        try:
            check_param_shapes(group, model_cfg)
        except ValueError as e:
            raise ValueError(f"{path}: {prefix}* tensors do not match the config ({e})") from None
    return Checkpoint(config=cfg, step=step, params=groups["param."],
                      adam_m=groups["adam.m."] if optimizer else None,
                      adam_v=groups["adam.v."] if optimizer else None,
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
