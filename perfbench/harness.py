"""Set-up, timed CLI calls and output checks of each workload, tracing off.

Every workload runs the user-facing entry point ``structkpn.cli.main`` in
process. One op is one CLI call plus its output check (for eval, one scored
image); a non-zero exit code, an exception or a failed check counts it as
failed. Each set-up ends with a call on fixed canonical inputs whose output
is checked against values recorded in ``reference.json`` and whose sha256
digest is reported, so runs of one commit report one digest per workload
whatever their seed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import spec
from spans import NULL
from structkpn import cli
from structkpn.corpus import synth_corpus
from structkpn.kpn import build_model
from structkpn.metrics import EVAL_HEADER, ssim_image
from structkpn.training import (CURVE_HEADER, Checkpoint, TrainConfig, init_adam,
                                load_checkpoint, save_checkpoint)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CANONICAL_LOSS_RTOL = 1e-6     # canonical curve vs the recorded one
CANONICAL_EVAL_ATOL = 1e-8     # canonical denoised PSNR (dB) / SSIM vs recorded
EVAL_BLUR_SIGMA = 0.5          # filter the eval checkpoint predicts everywhere
EVAL_HEAD_SCALE = 1e-3         # shrinks head.w so the predicted filter stays a blur


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Ops:
    """Counts attempted ops and keeps one message per failed op."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.failures)


class Stopwatch:
    """Wall and process CPU seconds (user + system) of a ``with`` block.

    The benchmark's times are CPU times: the program and its BLAS run on one
    thread, so on an idle machine CPU time equals wall time, while CPU time
    leaves out the time the process waited for a CPU that other tenants of a
    shared machine held.
    """

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._ru0 = resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self.user = ru.ru_utime - self._ru0.ru_utime
        self.sys = ru.ru_stime - self._ru0.ru_stime
        self.cpu = self.user + self.sys

    def as_dict(self):
        return {"wall": self.wall, "cpu": self.cpu, "user": self.user, "sys": self.sys}


def run_cli(argv):
    """Call ``structkpn.cli.main`` in process: (exit code, Stopwatch, output).

    An exception escaping the CLI is reported as exit code -1 with its
    traceback, so it counts as a failed op instead of ending the benchmark.
    """
    buf = io.StringIO()
    with Stopwatch() as watch:
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main([str(a) for a in argv])
        except Exception:  # noqa: BLE001 - any escape from the program is a failed op
            code = -1
            buf.write(traceback.format_exc())
    return code, watch, buf.getvalue()


def sha256_files(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gemm_gflops(reps=15):
    """Float64 GEMM rate at the default 3x3 conv's im2col shape, in GFLOP/s."""
    m, k, n = spec.GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((n, k))
    a @ b.T
    times = []
    for _ in range(reps):
        with Stopwatch() as watch:
            a @ b.T
        times.append(watch.cpu)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    """Machine, interpreter, numpy/BLAS and source identity of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src = sorted((ROOT / "src" / "structkpn").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": spec.BLAS_THREADS,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": sha256_files(*src),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- inputs -------------------------------------------------------------------

def train_config(name, seed, steps):
    w = spec.WORKLOADS[name]
    return TrainConfig(**{**w["config"], "seed": seed, "steps": steps, "val_interval": 0})


def write_config(path, cfg):
    """Write a ``key = value`` file holding every field of a TrainConfig."""
    lines = [f"{k} = {v}" for k, v in sorted(asdict(cfg).items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def make_eval_images(out_dir, seed, sizes):
    """One scene per size; image k is corpus image k of a corpus at that size."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, n in enumerate(sizes):
        tmp = out_dir / f"synth_{n}"
        src = synth_corpus(tmp, k + 1, n, seed)[k]
        dst = out_dir / f"img_{k:02d}_{n}.pgm"
        src.replace(dst)
        shutil.rmtree(tmp)
        paths.append(dst)
    return paths


def build_eval_checkpoint():
    """Default-architecture checkpoint whose predicted filters are a blur.

    He-init backbone from ``build_model`` with small nonzero biases, a
    normalised Gaussian (sigma EVAL_BLUR_SIGMA) in ``head.b`` and a shrunken
    ``head.w``, so every tensor is nonzero and denoised PSNR beats noisy PSNR.
    Deterministic: it depends on no seed of the benchmark.
    """
    cfg = TrainConfig(steps=0, val_interval=0)
    model_cfg = cfg.kpn_config()
    params = build_model(model_cfg, spec.CANONICAL_SEED)
    rng = np.random.default_rng([spec.CANONICAL_SEED, 1])
    for name in sorted(params):
        if name.endswith(".b") and name != "head.b":
            params[name] = rng.normal(0.0, 0.01, params[name].shape)
    k = model_cfg.kernel_size
    x = np.arange(k) - k // 2
    g = np.exp(-(x * x) / (2.0 * EVAL_BLUR_SIGMA ** 2))
    blur = np.outer(g, g).ravel()
    params["head.b"] = blur / blur.sum()
    params["head.w"] = params["head.w"] * EVAL_HEAD_SCALE
    state = init_adam(params)
    return Checkpoint(config=cfg, step=0, params=params, adam_m=state.m,
                      adam_v=state.v,
                      rng_state=np.random.default_rng(0).bit_generator.state)


def decode_pgm(path):
    """Read back a PGM written by ``fileio.write_pgm`` (independent decoder)."""
    data = Path(path).read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    dtype = ">u2" if int(maxval) > 255 else "u1"
    return np.frombuffer(pixels, dtype=dtype).reshape(h, w).astype(np.float64) / int(maxval)


def noisy_reference(paths, nm_sigma, seed):
    """Expected noisy (psnr, ssim) per image, computed without the CLI."""
    rows = []
    for i, p in enumerate(paths):
        clean = decode_pgm(p)
        rng = np.random.default_rng([seed, i])
        noisy = np.clip(clean + rng.normal(0.0, nm_sigma, clean.shape), 0.0, 1.0)
        mse = float(np.mean((clean - noisy) ** 2))
        rows.append((p.name, 10.0 * math.log10(1.0 / mse), ssim_image(clean, noisy)))
    return rows


# -- output checks ----------------------------------------------------------

def read_curve(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path}: bad curve header")
    rows = []
    for line in lines[1:]:
        step, loss, _, _ = line.split(",")
        rows.append((int(step), float(loss)))
    return rows


def check_train_output(code, ckpt_path, curve_path, cfg, expect_losses=None,
                       final_range=None):
    """Problems with one train call's outputs; empty when all checks pass."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    try:
        rows = read_curve(curve_path)
    except (OSError, ValueError) as e:
        return [f"curve unreadable: {e}"]
    losses = [loss for _, loss in rows]
    if [s for s, _ in rows] != list(range(1, cfg.steps + 1)):
        problems.append("curve steps are not 1..steps")
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in curve")
    elif expect_losses is not None:
        if len(losses) != len(expect_losses) or any(
                abs(a - b) > CANONICAL_LOSS_RTOL * abs(b)
                for a, b in zip(losses, expect_losses)):
            problems.append("curve differs from the recorded canonical curve")
    elif final_range is not None and losses:
        lo, hi = final_range
        if not lo <= losses[-1] <= hi:
            problems.append(f"final loss {losses[-1]!r} outside [{lo}, {hi}]")
    try:
        ckpt = load_checkpoint(ckpt_path)
    except Exception as e:  # noqa: BLE001 - any load failure fails the op
        problems.append(f"checkpoint unreadable: {type(e).__name__}: {e}")
    else:
        if ckpt.config != cfg or ckpt.step != cfg.steps:
            problems.append("checkpoint config or step differs from the call")
        if not all(np.isfinite(a).all() for a in ckpt.params.values()):
            problems.append("non-finite parameter in checkpoint")
    return problems


def read_eval_csv(path):
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != EVAL_HEADER:
        raise ValueError(f"{path}: bad eval header")
    return [(r[0], *(float(v) for v in r[1:])) for r in rows[1:]]


def check_eval_rows(code, csv_path, noisy_ref, denoised_ref=None):
    """Per-image problems of one eval call: a list with one list per image.

    ``noisy_ref`` holds (file, psnr_noisy, ssim_noisy) that the noisy columns
    must equal bit for bit; ``denoised_ref`` optionally holds recorded
    (psnr_denoised, ssim_denoised) the denoised columns must match within
    CANONICAL_EVAL_ATOL. A bad exit code or unreadable CSV fails every image.
    """
    n = len(noisy_ref)
    if code != 0:
        return [[f"exit code {code}"]] * n
    try:
        rows = read_eval_csv(csv_path)
    except (OSError, ValueError, IndexError) as e:
        return [[f"eval csv unreadable: {e}"]] * n
    if len(rows) != n:
        return [[f"eval csv has {len(rows)} rows, expected {n}"]] * n
    out = []
    for i, (row, ref) in enumerate(zip(rows, noisy_ref)):
        file, pn, sn, pd, sd = row
        problems = []
        if file != ref[0]:
            problems.append(f"row {i} is {file}, expected {ref[0]}")
        if not all(math.isfinite(v) for v in (pn, sn, pd, sd)):
            problems.append("non-finite value")
        elif pd <= pn:
            problems.append(f"denoised psnr {pd!r} <= noisy psnr {pn!r}")
        if (pn, sn) != tuple(ref[1:]):
            problems.append("noisy columns differ from the reference")
        if denoised_ref is not None and not (
                abs(pd - denoised_ref[i][0]) <= CANONICAL_EVAL_ATOL
                and abs(sd - denoised_ref[i][1]) <= CANONICAL_EVAL_ATOL):
            problems.append("denoised columns differ from the recorded reference")
        out.append(problems)
    return out


def eval_gain_db(csv_path):
    rows = read_eval_csv(csv_path)
    return float(np.mean([r[3] for r in rows]) - np.mean([r[1] for r in rows]))


# -- workloads ----------------------------------------------------------------

class TrainInputs:
    """Files of one train set-up: seeded corpus, configs, canonical outputs."""

    def __init__(self, name, seed, work):
        w = spec.WORKLOADS[name]
        self.work = Path(work)
        self.cfg = train_config(name, seed, w["steps_per_call"])
        self.canon_cfg = train_config(name, spec.CANONICAL_SEED, w["warmup_steps"])
        self.data = self.work / "data"
        self.canon_data = self.work / "canonical"
        self.heldout = self.work / "heldout"
        self.cfg_path = self.work / "train.cfg"
        self.canon_cfg_path = self.work / "canonical.cfg"
        self.ckpt = self.work / "run.ckpt"
        self.curve = self.work / "run.csv"
        self.canon_ckpt = self.work / "canonical.ckpt"
        self.canon_curve = self.work / "canonical.csv"

    def build(self, seed, with_heldout, rec=NULL):
        """Write the corpora and config files.

        The held-out scenes are the seeded corpus's last HELDOUT_COUNT images,
        moved to their own directory so training never sees them.
        """
        count = spec.CORPUS_COUNT + (spec.HELDOUT_COUNT if with_heldout else 0)
        with rec.span("corpus.synth_corpus"):
            paths = synth_corpus(self.data, count, spec.CORPUS_SIZE, seed)
            synth_corpus(self.canon_data, spec.CORPUS_COUNT, spec.CORPUS_SIZE,
                         spec.CANONICAL_SEED)
        if with_heldout:
            self.heldout.mkdir(parents=True, exist_ok=True)
            for p in paths[spec.CORPUS_COUNT:]:
                p.replace(self.heldout / p.name)
        write_config(self.cfg_path, self.cfg)
        write_config(self.canon_cfg_path, self.canon_cfg)

    def train_argv(self, canonical=False):
        if canonical:
            return ["train", "--config", self.canon_cfg_path, "--data", self.canon_data,
                    "--out", self.canon_ckpt, "--curve", self.canon_curve]
        return ["train", "--config", self.cfg_path, "--data", self.data,
                "--out", self.ckpt, "--curve", self.curve]


def train_setup(name, seed, work, ref, rec=NULL):
    """One set-up: inputs plus the canonical warm-up call and its check.

    Returns (inputs, canonical problems, canonical digest).
    """
    inp = TrainInputs(name, seed, work)
    inp.build(seed, with_heldout=name == "train-smoke", rec=rec)
    code, _, out = run_cli(inp.train_argv(canonical=True))
    problems = check_train_output(code, inp.canon_ckpt, inp.canon_curve, inp.canon_cfg,
                                  expect_losses=ref.get("canonical_losses"))
    if code != 0:
        problems.append(out.strip().splitlines()[-1] if out.strip() else "no output")
    digest = sha256_files(inp.canon_ckpt, inp.canon_curve) if code == 0 else None
    return inp, problems, digest


def run_setups(setup_fn, ops, report):
    """Run SETUP_REPEATS set-ups; returns the last one's inputs."""
    times, digests = [], []
    inp = None
    for k in range(spec.SETUP_REPEATS):
        with Stopwatch() as watch:
            inp, problems, digest = setup_fn(k)
        times.append(watch.cpu)
        if digests and digest != digests[0]:
            problems = problems + ["canonical digest differs from the first set-up"]
        digests.append(digest)
        ops.record(f"canonical call {k + 1}", problems)
    report["setup_times_s"] = times
    report["digest"] = digests[0]
    return inp


def run_train(name, seed, seconds, work, report):
    ref = load_reference()[name]
    ops = Ops()
    work = Path(work)
    inp = run_setups(lambda k: train_setup(name, seed, work / f"setup{k}", ref), ops, report)

    calls, digests = [], []
    while len(calls) < spec.MIN_TIMED_CALLS or sum(c.wall for c in calls) < seconds:
        code, watch, _ = run_cli(inp.train_argv())
        problems = check_train_output(code, inp.ckpt, inp.curve, inp.cfg,
                                      final_range=ref["final_loss_range"])
        digest = sha256_files(inp.ckpt, inp.curve) if code == 0 else None
        if digests and digest != digests[0]:
            problems.append("output differs from the first timed call")
        digests.append(digest)
        ops.record(f"timed call {len(calls) + 1}", problems)
        calls.append(watch)
    report["calls_s"] = [c.as_dict() for c in calls]
    report["timed_digest"] = digests[0]

    cfg = inp.cfg
    step_s = statistics.median(c.cpu for c in calls) / cfg.steps
    wall_step_s = statistics.median(c.wall for c in calls) / cfg.steps
    extra = {"train_ms_per_step": (step_s * 1e3, "ms"),
             "train_wall_ms_per_step": (wall_step_s * 1e3, "ms")}
    if name == "train-smoke":
        gain_csv = inp.work / "heldout.csv"
        code, _, _ = run_cli(["eval", "--ckpt", inp.ckpt, "--data", inp.heldout,
                              "--out", gain_csv, "--seed", spec.VAL_EVAL_SEED])
        problems = [f"exit code {code}"] if code != 0 else []
        try:
            gain = eval_gain_db(gain_csv) if code == 0 else float("nan")
        except (OSError, ValueError, IndexError) as e:
            gain = float("nan")
            problems.append(f"held-out csv unreadable: {e}")
        lo, hi = ref["val_gain_range"]
        if not (gain > 0 and lo <= gain <= hi):
            problems.append(f"val_psnr_gain_db {gain!r} not in (0, [{lo}, {hi}])")
        ops.record("held-out eval", problems)
        extra["val_psnr_gain_db"] = (gain, "dB")
    mpix = cfg.batch_size * cfg.patch_size ** 2 / step_s / 1e6
    return ops, mpix, extra


class EvalInputs:
    def __init__(self, work):
        self.work = Path(work)
        self.ckpt = self.work / "model.ckpt"
        self.data = self.work / "data"
        self.canon_data = self.work / "canonical"
        self.csv = self.work / "eval.csv"
        self.canon_csv = self.work / "canonical.csv"
        self.paths = []

    def eval_argv(self, seed, canonical=False):
        if canonical:
            return ["eval", "--ckpt", self.ckpt, "--data", self.canon_data,
                    "--out", self.canon_csv, "--seed", spec.CANONICAL_SEED]
        return ["eval", "--ckpt", self.ckpt, "--data", self.data, "--out", self.csv,
                "--seed", seed]


def eval_setup(seed, work, ref, rec=NULL):
    """One set-up: checkpoint, seeded and canonical images, canonical warm-up."""
    w = spec.WORKLOADS["eval-default"]
    inp = EvalInputs(work)
    inp.work.mkdir(parents=True, exist_ok=True)
    rec.call("training.save_checkpoint", save_checkpoint, inp.ckpt, build_eval_checkpoint())
    with rec.span("corpus.synth_corpus"):
        inp.paths = make_eval_images(inp.data, seed, w["sizes"])
        canon_paths = make_eval_images(inp.canon_data, spec.CANONICAL_SEED,
                                       w["warmup_sizes"])
    code, _, _ = run_cli(inp.eval_argv(seed, canonical=True))
    canon_noisy = [(r[0], r[1], r[2]) for r in ref["canonical_rows"]]
    canon_den = [(r[3], r[4]) for r in ref["canonical_rows"]]
    per_image = check_eval_rows(code, inp.canon_csv, canon_noisy, canon_den)
    problems = [p for ps in per_image for p in ps]
    if [r[0] for r in canon_noisy] != [p.name for p in canon_paths]:
        problems.append("canonical image names differ from the reference")
    digest = sha256_files(inp.ckpt, inp.canon_csv) if code == 0 else None
    return inp, problems, digest


def run_eval(seed, seconds, work, report):
    ref = load_reference()["eval-default"]
    ops = Ops()
    work = Path(work)
    inp = run_setups(lambda k: eval_setup(seed, work / f"setup{k}", ref), ops, report)
    sigma = TrainConfig().noise_sigma
    noisy_ref = noisy_reference(inp.paths, sigma, seed)

    calls, digests = [], []
    while len(calls) < spec.MIN_TIMED_CALLS or sum(c.wall for c in calls) < seconds:
        code, watch, _ = run_cli(inp.eval_argv(seed))
        per_image = check_eval_rows(code, inp.csv, noisy_ref)
        digest = sha256_files(inp.csv) if code == 0 else None
        if digests and digest != digests[0]:
            per_image = [ps + ["output differs from the first timed call"]
                         for ps in per_image]
        digests.append(digest)
        for (file, *_), problems in zip(noisy_ref, per_image):
            ops.record(f"call {len(calls) + 1} {file}", problems)
        calls.append(watch)
    report["calls_s"] = [c.as_dict() for c in calls]
    report["timed_digest"] = digests[0]
    if ops.failed == 0:
        report["eval_rows"] = read_eval_csv(inp.csv)
    mpix = sum(n * n for n in spec.WORKLOADS["eval-default"]["sizes"]) / 1e6
    rate = mpix / statistics.median(c.cpu for c in calls)
    wall_rate = mpix / statistics.median(c.wall for c in calls)
    return ops, rate, {"eval_mpix_per_s": (rate, "MPix/s"),
                       "eval_wall_mpix_per_s": (wall_rate, "MPix/s")}


def run_untraced(name, seed, seconds, work):
    """Run one workload with tracing off; returns (ops, metrics, extras, report)."""
    report = {"workload": name, "seed": seed, "trace": 0, "environment": environment()}
    if spec.WORKLOADS[name]["kind"] == "train":
        ops, mpix, extra = run_train(name, seed, seconds, work, report)
    else:
        ops, mpix, extra = run_eval(seed, seconds, work, report)
    metrics = {
        "mpix_per_s": mpix,
        "peak_rss_mb": peak_rss_mb(),    # before the GEMM probe adds its arrays
        "setup_s": statistics.median(report["setup_times_s"]),
    }
    report["gemm_gflops"] = gemm_gflops()
    return ops, metrics, extra, report
