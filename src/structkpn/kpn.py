"""Kernel-predicting denoiser: a small CNN emits one k x k filter per pixel.

The backbone is a 3x3 stem, a chain of residual blocks (3x3 conv, relu,
3x3 conv, skip add; the last block uses 2 convolution groups), a relu, and a
1x1 head. The config's ``model_kind`` picks the head: a "kpn" head has k^2
output channels, and each pixel's k^2 channel slice is applied to the input
frame by ``local_conv``, which replicates edges so output size equals input
size; kernels can optionally be softmax-normalized per pixel so they are
positive and sum to one. A "plain-cnn" head has one channel, starts at zero,
and adds a residual to the input through a global skip.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, ShapeError, _collapse_replication, accumulate_grad, add, conv2d,
                     make_op, register_op, relu, softmax_vec)

__all__ = [
    "KpnConfig",
    "local_conv",
    "build_model",
    "kpn_apply",
    "denoise_image",
    "params_to_tensors",
    "expected_param_shapes",
    "check_param_shapes",
]

MODEL_KINDS = ("kpn", "plain-cnn")


@dataclass(frozen=True)
class KpnConfig:
    kernel_size: int = 21
    stem_channels: int = 64
    num_res_blocks: int = 5
    groups: int = 2
    softmax_normalize_kernels: bool = False
    model_kind: str = "kpn"

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        if self.stem_channels < 1:
            raise ValueError(f"stem_channels must be positive, got {self.stem_channels}")
        if self.num_res_blocks < 0:
            raise ValueError(f"num_res_blocks must be >= 0, got {self.num_res_blocks}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.stem_channels % self.groups != 0:
            raise ValueError(
                f"stem_channels {self.stem_channels} not divisible by groups {self.groups}")


def _filter_geometry(k2):
    k = math.isqrt(k2)
    if k * k != k2 or k % 2 == 0:
        raise ShapeError(f"local_conv: {k2} filter channels is not an odd square")
    return k, k // 2


def _tap(a, c, k, h, w):
    """The (h,w) window of an r-padded array that channel c = (s+r)k+(t+r) reads at (m-s, n-t)."""
    r = k // 2
    s, t = c // k - r, c % k - r
    return a[:, :, r - s:r - s + h, r - t:r - t + w]


def _filter_window(xp, vd, k):
    """sum_c tap(xp, c) * vd[:, c] for (N,k^2,h,w) filters over a window xp padded by r."""
    n, _, h, w = vd.shape
    out = np.zeros((n, 1, h, w))
    for c in range(k * k):
        out += _tap(xp, c, k, h, w) * vd[:, c:c + 1]
    return out


def local_conv(x, v):
    """Apply per-pixel filters: out[m,n] = sum_{s,t} x[m-s, n-t] * v[(s+r)k+(t+r)].

    x is (N,1,H,W), v is (N,k^2,H,W) with k odd; out-of-range taps replicate
    the nearest edge pixel, so the output is (N,1,H,W). Every tap reads a
    window of x edge-padded once by r; the accumulation runs in fixed channel
    order, making results bit-reproducible.
    """
    xd, vd = x.data, v.data
    if xd.ndim != 4 or xd.shape[1] != 1:
        raise ShapeError(f"local_conv: input must be (N,1,H,W), got {xd.shape}")
    if vd.ndim != 4:
        raise ShapeError(f"local_conv: filters must be (N,k^2,H,W), got {vd.shape}")
    if vd.shape[0] != xd.shape[0] or vd.shape[2:] != xd.shape[2:]:
        raise ShapeError(
            f"local_conv: filter field {vd.shape} does not match input {xd.shape} "
            "on batch/spatial axes")
    k, r = _filter_geometry(vd.shape[1])
    h, w = xd.shape[2:]
    xp = np.pad(xd, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")

    def bw(g):
        if v.requires_grad:
            gv = np.empty_like(vd)
            for c in range(k * k):
                gv[:, c] = g[:, 0] * _tap(xp, c, k, h, w)[:, 0]
            accumulate_grad(v, gv)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for c in range(k * k):
                _tap(gxp, c, k, h, w)[...] += g * vd[:, c:c + 1]
            accumulate_grad(x, _collapse_replication(gxp, r, r))

    return make_op(_filter_window(xp, vd, k), (x, v), bw, "local_conv")


register_op("local_conv")


def expected_param_shapes(cfg):
    """Parameter name -> (shape, conv groups) for a config; defines init order."""
    head_channels = cfg.kernel_size * cfg.kernel_size if cfg.model_kind == "kpn" else 1
    c = cfg.stem_channels
    shapes = {"stem.w": ((c, 1, 3, 3), 1), "stem.b": ((c,), 1)}
    for i in range(cfg.num_res_blocks):
        g = cfg.groups if i == cfg.num_res_blocks - 1 else 1
        shapes[f"res{i}.conv1.w"] = ((c, c // g, 3, 3), g)
        shapes[f"res{i}.conv1.b"] = ((c,), g)
        shapes[f"res{i}.conv2.w"] = ((c, c // g, 3, 3), g)
        shapes[f"res{i}.conv2.b"] = ((c,), g)
    shapes["head.w"] = ((head_channels, c, 1, 1), 1)
    shapes["head.b"] = ((head_channels,), 1)
    return shapes


def build_model(cfg, seed):
    """He-initialized parameter arrays (biases zero) keyed by layer name.

    Weights are drawn in a fixed layer order from a PCG64 generator, so the
    same (cfg, seed) always yields bit-identical parameters. A plain-cnn head
    starts as the zero map, so the initial network is the identity.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, (shape, groups) in expected_param_shapes(cfg).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        elif cfg.model_kind == "plain-cnn" and name == "head.w":
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[1] * shape[2] * shape[3]
            params[name] = rng.normal(0.0, math.sqrt(2.0 / fan_in), shape)
    return params


def params_to_tensors(params, requires_grad=True):
    return {name: Tensor(arr, requires_grad=requires_grad, name=name)
            for name, arr in params.items()}


def check_param_shapes(shapes, cfg):
    """Raise ValueError unless ``shapes`` (name -> shape) names exactly the config's layers."""
    expected = expected_param_shapes(cfg)
    missing = sorted(set(expected) - set(shapes))
    extra = sorted(set(shapes) - set(expected))
    if missing or extra:
        raise ValueError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
    for name, (shape, _) in expected.items():
        if shapes[name] != shape:
            raise ValueError(f"parameter {name} has shape {shapes[name]}, expected {shape}")


def _backbone(params, x, cfg):
    h = conv2d(x, params["stem.w"], params["stem.b"])
    for i in range(cfg.num_res_blocks):
        g = cfg.groups if i == cfg.num_res_blocks - 1 else 1
        a = relu(conv2d(h, params[f"res{i}.conv1.w"], params[f"res{i}.conv1.b"], groups=g))
        # no name holds the second conv's output, so without a tape it is freed
        # once added instead of living on through the next block's convs
        h = add(h, conv2d(a, params[f"res{i}.conv2.w"], params[f"res{i}.conv2.b"], groups=g))
    return relu(h)


def kpn_apply(params, x, cfg):
    """Graph forward pass of either model kind: (head output, denoised image).

    params maps layer names to Tensors; x is an (N,1,H,W) Tensor. A kpn head
    is the per-pixel filter field (k^2 channels, softmax-normalized per pixel
    when configured) applied to x by local_conv; a plain-cnn head is one
    residual channel added to x.
    """
    check_param_shapes({name: t.data.shape for name, t in params.items()}, cfg)
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"kpn_apply: input must be (N,1,H,W), got {x.data.shape}")
    v = conv2d(_backbone(params, x, cfg), params["head.w"], params["head.b"])
    if cfg.model_kind == "plain-cnn":
        return v, add(x, v)
    if cfg.softmax_normalize_kernels:
        v = softmax_vec(v, axis=1)
    return v, local_conv(x, v)


# denoise_image runs the head over row bands of about this many pixels: at
# k = 21 a band of the filter field takes 14 MB, whatever the image size.
_BAND_PIXELS = 4096


def denoise_image(params, cfg, img, kernel_pixels=()):
    """Run the model on one (H,W) array; returns (denoised, kernels).

    The backbone runs once over the whole image. The 1x1 head, the optional
    softmax and the per-pixel filtering then run over bands of whole rows of
    about ``_BAND_PIXELS`` pixels, so the k^2-channel filter field is never
    held whole; the head is pointwise, so a band needs no halo. kernels is a
    (P,k,k) array holding the filter of each (m, n) in kernel_pixels (kpn
    only); tap (s,t) of a filter sits at [s+r, t+r]. Pixels are checked
    before the forward pass.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"denoise_image: expected a 2-D image, got shape {img.shape}")
    check_param_shapes({name: np.shape(a) for name, a in params.items()}, cfg)
    h, w = img.shape
    pixels = [(int(m), int(n)) for m, n in kernel_pixels]
    if pixels and cfg.model_kind != "kpn":
        raise ValueError(f"denoise_image: a {cfg.model_kind!r} model predicts no filters")
    for m, n in pixels:
        if not (0 <= m < h and 0 <= n < w):
            raise ValueError(f"denoise_image: pixel ({m}, {n}) outside the {h}x{w} image")
    tensors = params_to_tensors(params, requires_grad=False)
    feats = _backbone(tensors, Tensor(img[None, None]), cfg).data
    k = cfg.kernel_size
    r = k // 2
    xp = np.pad(img, r, mode="edge")[None, None]
    den = np.empty((h, w))
    kernels = np.empty((len(pixels), k, k))
    band = max(1, _BAND_PIXELS // w)
    for i in range(0, h, band):
        j = min(i + band, h)
        v = conv2d(Tensor(feats[:, :, i:j]), tensors["head.w"], tensors["head.b"])
        if cfg.model_kind == "plain-cnn":
            den[i:j] = img[i:j] + v.data[0, 0]
        else:
            if cfg.softmax_normalize_kernels:
                v = softmax_vec(v, axis=1)
            den[i:j] = _filter_window(xp[:, :, i:j + 2 * r], v.data, k)[0, 0]
            for p, (m, n) in enumerate(pixels):
                if i <= m < j:
                    kernels[p] = v.data[0, :, m - i, n].reshape(k, k)
        del v                                    # not held beside the next band's head output
    return den, kernels
