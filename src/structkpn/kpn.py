"""Kernel-predicting denoiser: a small CNN emits one k x k filter per pixel.

The backbone is a 3x3 stem, a chain of residual blocks (3x3 conv, relu, 3x3
conv, skip add; the last block uses 2 convolution groups), a relu, and a 1x1
head. The config's ``model_kind`` picks the head: a "kpn" head has k^2
output channels, and each pixel's k^2 channel slice is a filter applied to
the input frame with edges replicated, so output size equals input size;
kernels can optionally be softmax-normalized per pixel so they are positive
and sum to one. ``tensor.kpn_filter`` runs the head, the softmax and the
filtering as one op, an image at a time, that holds its input's
(N, k^2, H, W) field a block of ``tensor._BLOCK_VALUES`` values (2 MB) at a
time. It keeps a field of one block on the tape, as at the SMOKE config;
otherwise its backward rebuilds the filters it reads once a band, and a
softmax head's once a block of taps too. A "plain-cnn" head has one
channel, starts at zero, and adds a residual to the input through a global
skip.

Training runs a micro-batch on the tape (``kpn_apply``). ``denoise_image``
streams one image through the same layers in bands of whole rows, each 3x3
conv carrying the input rows it still needs from the band before and
emitting at most a band's rows at a time, the backbone's lag after the last
band included; an image wider than ``_STRIP_COLUMNS`` streams as vertical
strips that overlap by the backbone's receptive radius. So its memory
follows the band, not the image's height or width. Both read the one layer
list of ``_backbone_layers``. The stream's convs run the tape conv2d's
block-GEMM loop, ``tensor._conv_forward``, writing each band straight into
the next conv's padded input, the one copy of it held; the weights are the
caller's own arrays, with no copy when they are tap-major, as a model-only
``training.load_checkpoint`` leaves them. Each band's rows then go through
``kpn_filter``'s own forward over a band of pixels, ``tensor._filter_band``,
on bands of rows whose head GEMMs keep the bits of the band's whole field,
``tensor._widened_bands``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, ShapeError, _conv_forward, _conv_taps, _filter_band,
                     _head_field, _parts, _widened_bands, add, conv2d, kpn_filter, relu)
from .tensor import local_conv  # noqa: F401  perfbench/tracing.py imports it from here

__all__ = [
    "KpnConfig",
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


def _backbone_layers(cfg):
    """The backbone as (op, layer name, conv groups) steps, in order.

    "conv" is the 3x3 conv of that layer, "relu" clamps, "skip" keeps its
    input for the block's "add", which adds it to the block's second conv.
    ``expected_param_shapes``, the tape forward and the band stream all read
    this one list.
    """
    steps = [("conv", "stem", 1)]
    for i in range(cfg.num_res_blocks):
        g = cfg.groups if i == cfg.num_res_blocks - 1 else 1
        steps += [("skip", None, None), ("conv", f"res{i}.conv1", g), ("relu", None, None),
                  ("conv", f"res{i}.conv2", g), ("add", None, None)]
    steps.append(("relu", None, None))
    return steps


def expected_param_shapes(cfg):
    """Parameter name -> (shape, conv groups) for a config; defines init order."""
    head_channels = cfg.kernel_size * cfg.kernel_size if cfg.model_kind == "kpn" else 1
    c = cfg.stem_channels
    shapes = {}
    for op, name, g in _backbone_layers(cfg):
        if op == "conv":
            cin = 1 if name == "stem" else c
            shapes[name + ".w"] = ((c, cin // g, 3, 3), g)
            shapes[name + ".b"] = ((c,), g)
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
    h = x
    for op, name, g in _backbone_layers(cfg):
        if op == "conv":
            h = conv2d(h, params[name + ".w"], params[name + ".b"], groups=g)
        elif op == "relu":
            h = relu(h)
        elif op == "skip":
            skip = h
        else:
            h = add(skip, h)
    return h


def kpn_apply(params, x, cfg):
    """Graph forward pass of either model kind: the denoised image as a Tensor.

    params maps layer names to Tensors; x is an (N,1,H,W) Tensor. A kpn head
    and its per-pixel filtering of x are one ``kpn_filter`` op (k^2 channels,
    softmax-normalized per pixel when configured), which holds x's filter
    field a block at a time; a plain-cnn head is one residual channel added
    to x.
    """
    check_param_shapes({name: t.data.shape for name, t in params.items()}, cfg)
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"kpn_apply: input must be (N,1,H,W), got {x.data.shape}")
    feats = _backbone(params, x, cfg)
    if cfg.model_kind == "plain-cnn":
        return add(x, conv2d(feats, params["head.w"], params["head.b"]))
    return kpn_filter(x, feats, params["head.w"], params["head.b"],
                      cfg.softmax_normalize_kernels)


# denoise_image streams the image through the network in bands of whole rows
# of about this many pixels: a band of a 64-channel activation takes 1 MB,
# whatever the image size, and every conv emits at most a band's rows at a
# time, the backbone's lag after the last band included. At 64 channels a
# band's 3x3 conv is one tensor._conv_forward block (64 x rows x (W + 2)
# values within _BLOCK_VALUES) at every width from 2 to 4,094, so a wider
# band would buy no GEMM shape, only memory. A narrower one costs time: at
# 1,024, eval's throughput fell 7-20% for 1 MB of peak RSS, as every band
# pays a push's fixed cost. Each band's filter field is filtered in bands of
# about a block of tensor._BLOCK_VALUES values (2 MB) where the width allows.
_BAND_PIXELS = 2048

# An image wider than this many columns streams as vertical strips of at
# most this many, each with the backbone's receptive radius of real columns
# on either side, so that the rows each conv keeps between bands, and a band
# of one row, stay narrow whatever the width. The recomputed halo columns
# cost about 2 * 11 / _STRIP_COLUMNS of the conv work at the default config.
# Measured at the default config when each push still copied its band, 512
# kept an image of any width near 17 MiB of allocations besides its output,
# against 25 MiB at 64x1024 with a cap of 1024, and narrower strips saved
# under 1 MiB.
_STRIP_COLUMNS = 512


class _ConvRows:
    """A 3x3 conv fed rows top to bottom; it emits each output row once the
    input row below it has arrived, so it runs one row behind its input, and
    it emits at most ``rows`` rows a push.

    Its padded input is the one copy of its input band: ``take`` makes it
    afresh for each band, holding the rows kept from the one above the next
    output row onwards (2 rows between middle bands) as that row's top halo,
    room for the band, which the conv before writes straight in, and a spare
    row. Only the image's first and last rows replicate themselves as the
    halo, as conv2d's padding does. ``done`` is set once it has emitted its
    last row.
    """

    def __init__(self, wdata, bdata, groups, w, rows):
        self.wmat, self.chunks = _conv_taps(wdata, groups, w + 2)
        self.bias, self.groups, self.rows = bdata, groups, rows
        self.kept = np.empty((wdata.shape[1] * groups, 0, w + 2))    # padded rows
        self.top = True                          # no output row emitted yet
        self.emitted = 0                         # so xf's row j holds image row emitted - 1 + j
        self.done = False

    def take(self, q):
        """The (C,q,W+2) room for the next q input rows, in a fresh padded input
        below the top's replica row or the kept rows."""
        c, kept, wp = self.kept.shape
        p = self.top + kept
        self.xf = np.empty((c, p + q + 1, wp))
        self.xf[:, self.top:p] = self.kept
        return self.xf[:, p:p + q]

    def push(self, last, room):
        """Run over the rows written into ``take``'s room, with last once the input has
        ended: write the output rows now ready, at most ``rows`` of them, into room(n),
        the next conv's ``take`` or any (Cout,n,W+2) array, and return that array."""
        xf, top = self.xf, self.top
        c, pq, wp = xf.shape
        pq -= 1                                  # xf's rows above the spare one
        ready = pq + last - 2                    # less a halo row at either end
        nout = max(0, min(ready, self.rows))
        self.done = last and ready <= self.rows
        out = room(nout)
        if nout:
            if top:
                xf[:, 0] = xf[:, 1]
            if last:
                xf[:, pq] = xf[:, pq - 1]
            xf[:, :, 0] = xf[:, :, 1]
            xf[:, :, -1] = xf[:, :, -2]
            _conv_forward(xf[:, :nout + 2].reshape(self.groups, -1, 1, nout + 2, wp), self.wmat,
                          self.chunks, self.bias, out)
        self.kept = xf[:, max(top, nout):pq].copy()    # from the next output row's top halo on
        self.top = top and not nout
        self.emitted += nout
        del self.xf
        return out


def _stream_backbone(params, cfg, img, band):
    """Yield (first row, (C,r,W) features), r <= band, as the backbone clears each band of img.

    Every conv runs one row behind its input and writes its output straight
    into the next conv's padded input, so a push holds its input and output
    bands and nothing more. Each "add" reads its skip rows from the block's
    first conv's input, which it holds until the block's second conv has
    caught up with them: that input's top rows are the ones the first conv
    kept, and the second conv's next row is never above them. relu and the
    add write in place, as no tape holds the bands. After the last band,
    empty bands drain the backbone's lag, each conv emitting at most a
    band's rows a push; a conv's input has ended once the conv before it has
    emitted its last row.
    """
    h, w = img.shape
    c = cfg.stem_channels
    steps, convs = [], []
    for op, name, g in _backbone_layers(cfg):
        if op == "conv":
            state = _ConvRows(params[name + ".w"], params[name + ".b"], g, w, band)
            convs.append(state)
        elif op == "skip":
            state = held = []                    # the block's input: its first conv's xf
        else:
            state = held if op == "add" else None
        steps.append((op, state))
    rooms = [conv.take for conv in convs[1:]] + [lambda n: np.empty((c, n, w + 2))]
    row = i = 0
    while not convs[-1].done:
        rows = img[None, i:i + band]
        convs[0].take(rows.shape[1])[:, :, 1:-1] = rows
        ended = i + band >= h
        i += band
        k = 0
        for op, state in steps:
            if op == "conv":
                x = state.push(ended, rooms[k])[:, :, 1:-1]
                ended, k = state.done, k + 1
            elif op == "relu":
                np.maximum(x, 0.0, out=x)
            elif op == "skip":
                state[:] = convs[k].xf, convs[k].emitted - 1    # and the image row at its row 0
            else:
                xf, row0 = state
                a = convs[k - 1].emitted - x.shape[1] - row0    # xf's row of the first row here
                x += xf[:, a:a + x.shape[1], 1:-1]
                del state[:], xf                 # the first conv's input goes
        if x.shape[1]:
            x = np.ascontiguousarray(x)          # the head reads whole rows; the room goes
            yield row, x
            row += x.shape[1]


def denoise_image(params, cfg, img, kernel_pixels=()):
    """Run the model on one (H,W) array; returns (denoised, kernels).

    The image streams through the network in bands of whole rows of about
    ``_BAND_PIXELS`` pixels, so no activation and no filter field is ever held
    whole. Each 3x3 conv keeps the input rows from the band before that its
    next output row needs, emits its output one row behind its input and at
    most a band's rows at a time, so the backbone's lag leaves after the last
    band in bands no taller than the others. A conv's GEMMs write its output
    straight into the next conv's padded input, so a band is held once: a
    conv holds its input and its output, and each residual add reads its
    skip input from the block's first conv's input until its second conv
    has caught up. Only the image's top and bottom rows replicate as
    conv2d's padding does. An image wider than ``_STRIP_COLUMNS`` streams as
    vertical strips of at most that many columns, each with the backbone's
    receptive radius (a column a 3x3 conv, 11 at the default config) of real
    columns on either side, and each writes only its own columns. The convs
    read params' weights as they are, with no copy when they are tap-major,
    as a model-only ``training.load_checkpoint`` leaves them. At the default
    config, with such weights, the peak of allocations (tracemalloc) is about
    7.6 MiB at 256^2, where the whole-image backbone took 139 MB, 11 MiB at
    16x4096 and 18 MiB at 1024^2, 8 of it the output. ``kpn_filter``'s
    forward over a band, ``tensor._filter_band`` (the pointwise head, which
    needs no halo, and the per-pixel filter, which reads the input's real
    columns within its radius), then runs on bands of about a block of field
    values from each band of a strip's own features, their head GEMMs widened
    to whole panels by ``tensor._widened_bands`` so that they keep the bits
    of the band's field in one piece. The result is within 1e-12 of ``kpn_apply``
    on the whole image (a band or strip of features starts where the
    backbone's lag or the strip puts it, so the GEMMs see other shapes and
    the last bits can differ) and byte-identical across reruns at a fixed
    BLAS thread count. kernels is a (P,k,k) array holding the filter of each
    (m, n) in kernel_pixels (kpn only); tap (s,t) of a filter sits at
    [s+r, t+r]. Pixels are checked before the forward pass.
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
    params = {name: np.asarray(a, dtype=np.float64) for name, a in params.items()}
    wmat, bias = params["head.w"][:, :, 0, 0], params["head.b"]
    k = cfg.kernel_size
    r = k // 2
    halo = sum(op == "conv" for op, _, _ in _backbone_layers(cfg))    # the receptive radius
    den = np.empty((h, w))
    kernels = np.empty((len(pixels), k, k))
    for c0, c1 in _parts(w, _STRIP_COLUMNS, 0):
        s0, s1 = max(0, c0 - halo), min(w, c1 + halo)
        cw = c1 - c0
        cols = np.clip(np.arange(c0 - r, c1 + r), 0, w - 1)
        for row, feats in _stream_backbone(params, cfg, img[:, s0:s1],
                                           max(1, _BAND_PIXELS // (s1 - s0))):
            j = row + feats.shape[1]
            fd = np.ascontiguousarray(feats[:, :, c0 - s0:c1 - s0]).reshape(len(feats), -1)
            if cfg.model_kind == "plain-cnn":
                den[row:j, c0:c1] = img[row:j, c0:c1] + _head_field(
                    fd[None], wmat, bias, np.empty((1, 1, fd.shape[1]))).reshape(-1, cw)
            else:
                # the band's rows and the strip's columns of the input, edge-padded by r
                # as kpn_filter pads it
                xp = img[np.ix_(np.clip(np.arange(row - r, j + r), 0, h - 1), cols)]
                bands = _widened_bands(j - row, cw, k * k, len(fd))
                buf = np.empty(k * k * max(b - a for _, _, a, b in bands))
                for i, e, a, b in bands:
                    field = buf[:k * k * (b - a)].reshape(1, k * k, -1)
                    _filter_band(xp[None, i:e + 2 * r], fd[None, :, a:b], wmat, bias,
                                 cfg.softmax_normalize_kernels, field,
                                 den[None, row + i:row + e, c0:c1], i * cw - a)
                    for p, (m, n) in enumerate(pixels):
                        if row + i <= m < row + e and c0 <= n < c1:
                            kernels[p] = field[0, :, (m - row) * cw + n - c0 - a].reshape(k, k)
                del buf, field
            del feats, fd                        # not held while the next band runs
    return den, kernels
