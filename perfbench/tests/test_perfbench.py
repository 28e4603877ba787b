"""Self-tests of the benchmark: its checks, its replay and its trace arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.prepare() is None

import harness  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from spans import PeakRecorder, Tracer, coverage, self_times  # noqa: E402

STEPS = 3


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """A short train-smoke CLI call at seed 0, with its inputs."""
    inp = harness.TrainInputs("train-smoke", 0, tmp_path_factory.mktemp("smoke"))
    inp.cfg = harness.train_config("train-smoke", 0, STEPS)
    inp.build(0, with_heldout=False)
    code, _, out = harness.run_cli(inp.train_argv())
    assert code == 0, out
    return inp


def test_intact_train_output_passes(smoke_run):
    inp = smoke_run
    assert harness.check_train_output(0, inp.ckpt, inp.curve, inp.cfg) == []


def test_corrupted_checkpoint_fails_the_op(smoke_run, tmp_path):
    inp = smoke_run
    data = inp.ckpt.read_bytes()
    for name, bad in (("truncated", data[:len(data) // 2]),
                      ("header only", data[:10]),
                      ("bad magic", b"XXXX" + data[4:])):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(bad)
        problems = harness.check_train_output(0, path, inp.curve, inp.cfg)
        assert any("checkpoint unreadable" in p for p in problems), name
        ops = harness.Ops()
        ops.record(name, problems)
        assert (ops.attempted, ops.failed) == (1, 1)


def test_nonzero_exit_code_fails_the_op(smoke_run, tmp_path):
    code, _, out = harness.run_cli(["train", "--config", tmp_path / "missing.cfg",
                                    "--data", smoke_run.data, "--out", tmp_path / "x.ckpt"])
    assert code == 1 and "error:" in out
    assert harness.check_train_output(code, tmp_path / "x.ckpt", tmp_path / "x.csv",
                                      smoke_run.cfg) == ["exit code 1"]
    per_image = harness.check_eval_rows(2, tmp_path / "x.csv", [("a.pgm", 1.0, 0.5)])
    assert per_image == [["exit code 2"]]


def test_non_finite_or_out_of_range_loss_fails_the_op(smoke_run, tmp_path):
    inp = smoke_run
    curve = tmp_path / "curve.csv"
    text = inp.curve.read_text(encoding="ascii").splitlines()
    last = text[-1].split(",")
    curve.write_text("\n".join(text[:-1] + [",".join([last[0], "nan", "", ""])]) + "\n",
                     encoding="ascii")
    assert "non-finite loss in curve" in harness.check_train_output(0, inp.ckpt, curve, inp.cfg)
    problems = harness.check_train_output(0, inp.ckpt, inp.curve, inp.cfg,
                                          final_range=(10.0, 11.0))
    assert any("outside" in p for p in problems)


def write_eval_csv(path, rows):
    with open(path, "w", newline="", encoding="ascii") as f:
        wr = csv.writer(f)
        wr.writerow(harness.EVAL_HEADER)
        for r in rows:
            wr.writerow([r[0], *(repr(v) for v in r[1:])])


def test_perturbed_denoised_output_fails_the_op(tmp_path):
    row = ("img.pgm", 20.0, 0.4, 26.5, 0.8)
    noisy_ref = [row[:3]]
    path = tmp_path / "eval.csv"
    write_eval_csv(path, [row])
    assert harness.check_eval_rows(0, path, noisy_ref, [row[3:]]) == [[]]
    write_eval_csv(path, [row[:3] + (26.5 + 1e-6, 0.8)])
    assert harness.check_eval_rows(0, path, noisy_ref, [row[3:]]) != [[]]
    write_eval_csv(path, [row[:3] + (19.0, 0.8)])
    assert harness.check_eval_rows(0, path, noisy_ref) != [[]]
    write_eval_csv(path, [("img.pgm", 20.0 + 1e-12, 0.4, 26.5, 0.8)])
    assert harness.check_eval_rows(0, path, noisy_ref) != [[]]


def test_eval_noisy_reference_matches_the_cli(tmp_path):
    """The independent noisy reference equals the CLI's noisy columns bit for bit."""
    from structkpn.training import save_checkpoint
    inp = harness.EvalInputs(tmp_path)
    save_checkpoint(inp.ckpt, harness.build_eval_checkpoint())
    paths = harness.make_eval_images(inp.data, 3, (32, 40))
    code, _, out = harness.run_cli(inp.eval_argv(3))
    assert code == 0, out
    noisy_ref = harness.noisy_reference(paths, 0.1, 3)
    assert harness.check_eval_rows(code, inp.csv, noisy_ref) == [[], []]


def test_train_replay_equals_cli_curve(smoke_run, tmp_path):
    inp = smoke_run
    images = [harness.decode_pgm(p) for p in sorted(inp.data.glob("*.pgm"))]
    cfg = tracing.parse_config_file(inp.cfg_path)
    tracer = Tracer()
    losses, ckpt = tracing.replay_train(tracer, cfg, images, cfg.steps,
                                        on_step=lambda st: tracing.isolated_backward(tracer, st))
    assert losses == [loss for _, loss in harness.read_curve(inp.curve)]
    path = tmp_path / "replay.ckpt"
    harness.save_checkpoint(path, ckpt)
    assert path.read_bytes() == inp.ckpt.read_bytes()
    names = {s["name"] for s in tracer.spans}
    assert {"tensor.conv2d", "tensor.conv2d.bwd", "kpn.local_conv.bwd",
            "losses.struct_loss.bwd", "gradstats.stats_map"} <= names
    assert coverage(tracer.spans, "step") > 0.9


def test_coverage_is_computed_from_span_self_times():
    ticks = iter([0, 1, 3, 4, 6, 6, 9, 10, 10, 20])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("step", unit=1):           # 0 .. 10
        with tracer.span("a"):                   # 1 .. 6
            with tracer.span("b"):               # 3 .. 4
                pass
        with tracer.span("c"):                   # 6 .. 9
            pass
    with tracer.span("other"):                   # 10 .. 20, not a step
        pass
    assert self_times(tracer.spans) == [2, 4, 1, 3, 10]
    assert [s["unit"] for s in tracer.spans] == [1, 1, 1, 1, None]
    assert coverage(tracer.spans, "step") == pytest.approx(0.8)


def test_peak_recorder_folds_child_peaks_into_parent():
    tracemalloc.start()
    try:
        rec = PeakRecorder()
        with rec.span("outer"):
            rec.call("inner", lambda: np.ones(1 << 20).sum())   # 8 MiB, freed
            keep = np.ones(1 << 18)                               # 2 MiB, kept
        del keep
    finally:
        tracemalloc.stop()
    inner, outer = rec.max_mb("inner"), rec.max_mb("outer")
    assert 7.9 < inner < 8.5
    assert outer >= inner


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()


def test_runner_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-smoke",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
