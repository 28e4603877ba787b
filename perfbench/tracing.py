"""Traced replay of each workload through the program's public functions.

The traced run first makes the workload's untraced CLI call, then replays the
same work call by call with a span around each call into ``tensor``, ``kpn``,
``gradstats``, ``losses``, ``training``, ``metrics``, ``fileio`` and
``corpus``. The replay must reproduce the CLI's outputs bit for bit; a
divergence is reported, not raised. Backward times per op come from calling
``backward`` on a graph that holds only that op, fed the replayed step's
inputs and upstream gradient. Allocation peaks come from a separate
tracemalloc pass, so they do not disturb the timed spans.
"""

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import harness
import spec
from spans import PeakRecorder, Tracer, coverage, duration, total_ms
from structkpn.cli import parse_config_file
from structkpn.fileio import read_pgm
from structkpn.gradstats import stats_map
from structkpn.kpn import build_model, expected_param_shapes, local_conv, params_to_tensors
from structkpn.losses import loss_weights, struct_loss
from structkpn.metrics import psnr, ssim_image
from structkpn.tensor import (Tensor, add, backward, conv2d, mul, reduce_sum, relu,
                              softmax_vec)
from structkpn.training import (Checkpoint, add_noise, adam_step, init_adam,
                                load_checkpoint, sample_patch_pairs, save_checkpoint,
                                split_train_val)

ELEMENTWISE = ("tensor.relu", "tensor.add", "tensor.softmax_vec")


# -- replay -------------------------------------------------------------------

def replay_kpn_apply(rec, tensors, x, model_cfg, on_conv):
    """``kpn.kpn_apply`` as public calls; returns (filters, output).

    Layer groups come from ``kpn.expected_param_shapes``. After each conv
    call, ``on_conv(layer, input, param name, groups, output)`` runs; it
    should keep the tensors only if the caller's graph keeps them anyway.
    """
    shapes = expected_param_shapes(model_cfg)

    def conv(layer, inp, name):
        groups = shapes[name + ".w"][1]
        out = rec.call("tensor.conv2d", conv2d, inp, tensors[name + ".w"],
                       tensors[name + ".b"], groups=groups, attrs={"layer": layer})
        on_conv(layer, inp, name, groups, out)
        return out

    h = conv("backbone", x, "stem")
    for i in range(model_cfg.num_res_blocks):
        a = rec.call("tensor.relu", relu, conv("backbone", h, f"res{i}.conv1"))
        h = rec.call("tensor.add", add, h, conv("backbone", a, f"res{i}.conv2"))
    feats = rec.call("tensor.relu", relu, h)
    v = conv("head", feats, "head")
    if model_cfg.softmax_normalize_kernels:
        v = rec.call("tensor.softmax_vec", softmax_vec, v, axis=1)
    yhat = rec.call("kpn.local_conv", local_conv, x, v)
    return v, yhat


class Step:
    """What the isolated backward pass needs from one replayed step."""

    def __init__(self, unit, tensors, x, v, yhat, yb, wts, consts, convs):
        self.unit, self.tensors, self.x, self.v, self.yhat = unit, tensors, x, v, yhat
        self.yb, self.wts, self.consts, self.convs = yb, wts, consts, convs


def replay_train(rec, cfg, images, steps, on_step=None):
    """``training.train`` for a kpn/struct config, one public call at a time.

    Returns (per-step losses, final Checkpoint). ``on_step(Step)`` runs after
    each step, outside its span.
    """
    if cfg.model_kind != "kpn" or cfg.loss_kind != "struct":
        raise ValueError("the replay covers kpn models under the struct loss only")
    model_cfg = cfg.kpn_config()
    train_imgs, _ = split_train_val([np.asarray(im, dtype=np.float64) for im in images])
    params = build_model(model_cfg, cfg.seed)
    state = init_adam(params)
    rng = np.random.default_rng(cfg.seed)
    consts = cfg.loss_constants()
    losses = []
    for step in range(1, steps + 1):
        with rec.span("step", unit=step):
            xb, yb, _ = rec.call("training.sample_patch_pairs", sample_patch_pairs,
                                 train_imgs, cfg, rng, with_weights=False)
            wts = []
            for clean in yb[:, 0]:
                stats = rec.call("gradstats.stats_map", stats_map, clean, cfg.k_r,
                                 cfg.strength_normalization)
                wts.append(rec.call("losses.loss_weights", loss_weights, stats,
                                    cfg.sigma_l2, cfg.sigma_l1))
            tensors = params_to_tensors(params)
            x = Tensor(xb)
            convs = []
            v, yhat = replay_kpn_apply(rec, tensors, x, model_cfg,
                                       lambda *conv: convs.append(conv))
            loss = rec.call("losses.struct_loss", struct_loss, yhat, yb, wts, consts)
            losses.append(float(loss.item()))
            by_tensor = rec.call("tensor.backward", backward, loss, list(tensors.values()))
            grads = {name: by_tensor[t] for name, t in tensors.items()}
            params, state = rec.call("training.adam_step", adam_step, params, grads,
                                     state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        if on_step is not None:
            on_step(Step(step, tensors, x, v, yhat, yb, wts, consts, convs))
    ckpt = Checkpoint(config=cfg, step=steps, params=params, adam_m=state.m,
                      adam_v=state.v, rng_state=rng.bit_generator.state)
    return losses, ckpt


def _one_op_backward(rec, out, upstream, name, attrs):
    """Backward through the graph of one op output, seeded with ``upstream``.

    The op's own backward closure (on a tensor this module created) is
    wrapped in a span, so the seeding ops' cost stays outside it.
    """
    fn = out._backward_fn

    def timed(g):
        with rec.span(name, **attrs):
            fn(g)

    out._backward_fn = timed
    rec.call("isolated.backward", backward, reduce_sum(mul(out, Tensor(upstream))))


def isolated_backward(rec, st):
    """Time each op's backward alone, with the replayed step's inputs."""
    with rec.span("isolated", unit=st.unit):
        for layer, inp, name, groups, out in st.convs:
            if out.grad is None:
                continue
            w, b = st.tensors[name + ".w"], st.tensors[name + ".b"]
            oi = conv2d(Tensor(inp.data, requires_grad=inp.requires_grad),
                        Tensor(w.data, requires_grad=True),
                        Tensor(b.data, requires_grad=True), groups=groups)
            _one_op_backward(rec, oi, out.grad, "tensor.conv2d.bwd", {"layer": layer})
        oi = local_conv(Tensor(st.x.data), Tensor(st.v.data, requires_grad=True))
        _one_op_backward(rec, oi, st.yhat.grad, "kpn.local_conv.bwd", {})
        loss = struct_loss(Tensor(st.yhat.data, requires_grad=True), st.yb, st.wts, st.consts)
        rec.call("losses.struct_loss.bwd", backward, loss)


def replay_denoise(rec, params, model_cfg, img):
    """``kpn.denoise_image`` for a kpn checkpoint; returns (denoised, flops).

    ``flops`` is the nominal flop count of its conv calls.
    """
    flops = []

    def count(layer, inp, name, groups, out):
        flops.append(conv_flops([(layer, inp, name, groups, out)], tensors, False))

    with rec.span("kpn.denoise_image"):
        img = np.asarray(img, dtype=np.float64)
        tensors = params_to_tensors(params, requires_grad=False)
        v, yhat = replay_kpn_apply(rec, tensors, Tensor(img[None, None]), model_cfg, count)
        v.data[0].transpose(1, 2, 0).copy()   # kpn_forward also returns the field
        den = yhat.data[0, 0].copy()
    return den, sum(flops)


# -- per-layer metrics ----------------------------------------------------------

def conv_flops(convs, tensors, backward_too):
    """Nominal flops of the recorded conv calls, 2 per multiply-add.

    The forward is N*H*W*Cout*(Cin/groups)*kh*kw multiply-adds; the backward
    adds the same again for the weight gradient and, when the input needs a
    gradient, once more for it.
    """
    total = 0
    for _, inp, name, _, out in convs:
        n, _, h, w = inp.data.shape
        fwd = 2 * n * h * w * int(np.prod(tensors[name + ".w"].data.shape))
        total += fwd * (1 + backward_too * (1 + int(inp.requires_grad)))
    return float(total)


def empty_metrics():
    return {name: 0.0 for name, *_ in spec.PER_LAYER}


def _report_spans(spans):
    t0 = spans[0]["start"] if spans else 0.0
    return [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in spans]


# -- traced workloads -----------------------------------------------------------

def trace_train(name, seed, work, report):
    ref = harness.load_reference()[name]
    ops = harness.Ops()
    tracer = Tracer(clock=time.process_time)
    inp, problems, digest = harness.train_setup(name, seed, Path(work) / "setup", ref, tracer)
    report["digest"] = digest
    ops.record("canonical call", problems)

    code, watch, _ = harness.run_cli(inp.train_argv())
    ops.record("reference call", harness.check_train_output(
        code, inp.ckpt, inp.curve, inp.cfg, final_range=ref["final_loss_range"]))
    try:
        cli_losses = [loss for _, loss in harness.read_curve(inp.curve)]
    except (OSError, ValueError):
        cli_losses = []

    paths = sorted(inp.data.glob("*.pgm"))
    images = [tracer.call("fileio.read_pgm", read_pgm, p) for p in paths]
    cfg = tracer.call("cli.parse_config_file", parse_config_file, inp.cfg_path)
    steps, flops = [], []

    def on_step(st):
        steps.append(st.unit)
        isolated_backward(tracer, st)
        flops.append(conv_flops(st.convs, st.tensors, backward_too=True))

    losses, ckpt = replay_train(tracer, cfg, images, cfg.steps, on_step)
    replay_path = inp.work / "replay.ckpt"
    tracer.call("training.save_checkpoint", save_checkpoint, replay_path, ckpt)
    tracer.call("training.load_checkpoint", load_checkpoint, inp.ckpt)
    mismatch = [i + 1 for i, (a, b) in enumerate(zip(losses, cli_losses)) if a != b]
    if len(losses) != len(cli_losses):
        mismatch.append("length")
    if code != 0 or replay_path.read_bytes() != inp.ckpt.read_bytes():
        mismatch.append("checkpoint bytes")
    report["replay"] = {"losses": losses, "cli_losses": cli_losses, "mismatch": mismatch}

    tracemalloc.start()
    try:
        peaks = PeakRecorder()
        replay_train(peaks, cfg, images, 1)
    finally:
        tracemalloc.stop()

    spans = tracer.spans
    m = empty_metrics()

    def med(name, **match):
        return statistics.median(total_ms(spans, name, u, **match) for u in steps)

    m["tensor.conv2d.fwd_ms"] = med("tensor.conv2d", layer="backbone")
    m["tensor.conv2d.head_fwd_ms"] = med("tensor.conv2d", layer="head")
    m["tensor.conv2d.bwd_ms"] = med("tensor.conv2d.bwd", layer="backbone")
    m["tensor.conv2d.head_bwd_ms"] = med("tensor.conv2d.bwd", layer="head")
    conv_ms = [total_ms(spans, "tensor.conv2d", u) + total_ms(spans, "tensor.conv2d.bwd", u)
               for u in steps]
    m["tensor.conv2d.gflops"] = statistics.median(
        f / (ms * 1e-3) / 1e9 for f, ms in zip(flops, conv_ms))
    m["tensor.conv2d.peak_alloc_mb"] = peaks.max_mb("tensor.conv2d")
    m["tensor.backward_ms"] = med("tensor.backward")
    m["tensor.elementwise_ms"] = statistics.median(
        sum(total_ms(spans, n, u) for n in ELEMENTWISE) for u in steps)
    m["kpn.local_conv.fwd_ms"] = med("kpn.local_conv")
    m["kpn.local_conv.bwd_ms"] = med("kpn.local_conv.bwd")
    m["gradstats.stats_map_ms"] = med("gradstats.stats_map")
    m["losses.loss_weights_ms"] = med("losses.loss_weights")
    m["losses.struct_loss.fwd_ms"] = med("losses.struct_loss")
    m["losses.struct_loss.bwd_ms"] = med("losses.struct_loss.bwd")
    m["training.sample_patch_pairs_ms"] = med("training.sample_patch_pairs")
    m["training.adam_step_ms"] = med("training.adam_step")
    m["training.load_checkpoint_ms"] = total_ms(spans, "training.load_checkpoint")
    m["training.save_checkpoint_ms"] = total_ms(spans, "training.save_checkpoint")
    m["fileio.read_pgm_ms"] = total_ms(spans, "fileio.read_pgm")
    m["corpus.synth_corpus_s"] = total_ms(spans, "corpus.synth_corpus") / 1e3
    unit_ms = statistics.median(1e3 * duration(s) for s in spans if s["name"] == "step")
    m["trace.unit_ms"] = unit_ms
    m["trace.coverage"] = coverage(spans, "step")
    m["trace.overhead"] = unit_ms / (1e3 * watch.cpu / cfg.steps) - 1.0
    return ops, m, spans


def trace_eval(seed, work, report):
    w = spec.WORKLOADS["eval-default"]
    ref = harness.load_reference()["eval-default"]
    ops = harness.Ops()
    tracer = Tracer(clock=time.process_time)
    inp, problems, digest = harness.eval_setup(seed, Path(work) / "setup", ref, tracer)
    report["digest"] = digest
    ops.record("canonical call", problems)

    noisy_ref = harness.noisy_reference(inp.paths, harness.TrainConfig().noise_sigma, seed)
    code, watch, _ = harness.run_cli(inp.eval_argv(seed))
    for (file, *_), problems in zip(noisy_ref, harness.check_eval_rows(code, inp.csv, noisy_ref)):
        ops.record(f"reference call {file}", problems)
    try:
        cli_rows = harness.read_eval_csv(inp.csv)
    except (OSError, ValueError, IndexError):
        cli_rows = []

    ckpt = tracer.call("training.load_checkpoint", load_checkpoint, inp.ckpt)
    model_cfg, nm = ckpt.config.kpn_config(), ckpt.config.noise_model()
    rows, flops = [], 0.0
    for i, path in enumerate(sorted(inp.data.glob("*.pgm"))):
        with tracer.span("image", unit=path.name):
            img = tracer.call("fileio.read_pgm", read_pgm, path)
            noisy = tracer.call("training.add_noise", add_noise, img, nm,
                                np.random.default_rng([seed, i]))
            den, f = replay_denoise(tracer, ckpt.params, model_cfg, noisy)
            rows.append((path.name,
                         tracer.call("metrics.psnr", psnr, img, noisy),
                         tracer.call("metrics.ssim_image", ssim_image, img, noisy),
                         tracer.call("metrics.psnr", psnr, img, den),
                         tracer.call("metrics.ssim_image", ssim_image, img, den)))
        flops += f
    mismatch = [r[0] for r, c in zip(rows, cli_rows) if tuple(r) != tuple(c)]
    if len(rows) != len(cli_rows):
        mismatch.append("length")
    report["replay"] = {"rows": rows, "cli_rows": cli_rows, "mismatch": mismatch}

    largest = max(inp.paths, key=lambda p: p.stat().st_size)
    tracemalloc.start()
    try:
        peaks = PeakRecorder()
        replay_denoise(peaks, ckpt.params, model_cfg, read_pgm(largest))
    finally:
        tracemalloc.stop()

    spans = tracer.spans
    mpix = sum(n * n for n in w["sizes"]) / 1e6
    m = empty_metrics()
    conv_ms = total_ms(spans, "tensor.conv2d")
    m["tensor.conv2d.fwd_ms"] = total_ms(spans, "tensor.conv2d", layer="backbone")
    m["tensor.conv2d.head_fwd_ms"] = total_ms(spans, "tensor.conv2d", layer="head")
    m["tensor.conv2d.gflops"] = flops / (conv_ms * 1e-3) / 1e9
    m["tensor.conv2d.peak_alloc_mb"] = peaks.max_mb("tensor.conv2d")
    m["tensor.elementwise_ms"] = sum(total_ms(spans, n) for n in ELEMENTWISE)
    m["kpn.local_conv.fwd_ms"] = total_ms(spans, "kpn.local_conv")
    m["kpn.denoise_image.ms_per_mpix"] = total_ms(spans, "kpn.denoise_image") / mpix
    m["kpn.denoise_image.peak_alloc_mb"] = peaks.max_mb("kpn.denoise_image")
    m["training.add_noise_ms"] = total_ms(spans, "training.add_noise")
    m["training.load_checkpoint_ms"] = total_ms(spans, "training.load_checkpoint")
    m["training.save_checkpoint_ms"] = total_ms(spans, "training.save_checkpoint")
    m["metrics.psnr_ms"] = total_ms(spans, "metrics.psnr")
    m["metrics.ssim_image_ms"] = total_ms(spans, "metrics.ssim_image")
    m["fileio.read_pgm_ms"] = total_ms(spans, "fileio.read_pgm")
    m["corpus.synth_corpus_s"] = total_ms(spans, "corpus.synth_corpus") / 1e3
    m["trace.unit_ms"] = sum(1e3 * duration(s) for s in spans if s["name"] == "image")
    m["trace.coverage"] = coverage(spans, "image")
    traced_ms = m["trace.unit_ms"] + m["training.load_checkpoint_ms"]
    m["trace.overhead"] = traced_ms / (1e3 * watch.cpu) - 1.0
    return ops, m, spans


def run_traced(name, seed, work):
    """Run one workload's traced replay; returns (ops, metrics, report)."""
    report = {"workload": name, "seed": seed, "trace": 1,
              "environment": harness.environment()}
    if spec.WORKLOADS[name]["kind"] == "train":
        ops, m, spans = trace_train(name, seed, work, report)
    else:
        ops, m, spans = trace_eval(seed, work, report)
    m["machine.gemm_gflops"] = harness.gemm_gflops()
    report["spans"] = _report_spans(spans)
    return ops, m, report
