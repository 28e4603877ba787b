"""structkpn benchmark runner.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced and not

Runs one workload in this process against the source tree in ``src/`` and
prints each metric by name with its unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced replay. ``--seconds`` sets how long an untraced run keeps making timed
calls; a traced run does a fixed amount of work. A JSON report with the environment, digests, per-call times
and (traced) spans is written under ``.perfbench_runs/``.
``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (needs the path above; imports no numpy)

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Fix the BLAS thread count and import structkpn from ``src/``.

    Returns an error message, or None when the source tree imported.
    """
    src = ROOT / "src"
    if not (src / "structkpn" / "cli.py").is_file():
        return f"no structkpn source tree at {src}"
    # The thread count must be fixed before numpy loads its BLAS.
    for var in BLAS_ENV:
        os.environ[var] = str(spec.BLAS_THREADS)
    sys.path.insert(0, str(src))
    import structkpn
    if Path(structkpn.__file__).resolve().parent != (src / "structkpn").resolve():
        return f"structkpn imported from {structkpn.__file__}, not {src}"
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description="structkpn benchmark")
    p.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="rewrite BENCHMARK.json from spec.py and exit")
    return p.parse_args(argv)


def run_all(args):
    """Each workload in a fresh process, untraced then traced."""
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def format_value(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args):
    import harness
    import tracing

    name, seed = args.workload, args.seed
    work = ROOT / ".perfbench_runs" / f"{name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            ops, metrics, report = tracing.run_traced(name, seed, work)
            extra = {}
        else:
            ops, metrics, extra, report = harness.run_untraced(name, seed, args.seconds, work)
    finally:
        for child in work.iterdir():
            if child.is_dir():
                shutil.rmtree(child)

    report.update(metrics=metrics, extra=extra, attempted=ops.attempted,
                  failed=ops.failed, failures=ops.failures)
    report_path = work / "report.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"structkpn benchmark: workload {name}, seed {seed}, trace {args.trace}")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} {env['blas_version']} with {env['blas_threads']} thread(s), "
          f"commit {env['git_commit']}")
    print(f"digest (canonical inputs): {report['digest']}")
    for key, value in metrics.items():
        print(f"{key} = {format_value(value)} {spec.UNITS[key]}")
    for key, (value, unit) in extra.items():
        print(f"{key} = {format_value(value)} {unit}")
    if args.trace:
        mismatch = report["replay"]["mismatch"]
        print("replay: " + (f"MISMATCH at {mismatch}" if mismatch
                            else "bit-identical to the CLI output"))
    print(f"ops_attempted = {ops.attempted}")
    print(f"ops_failed = {ops.failed}")
    for failure in ops.failures:
        print(f"failed op: {failure}")
    print(f"report: {report_path.relative_to(ROOT)}")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
