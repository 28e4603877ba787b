"""Record the reference values that the benchmark's output checks compare to.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference. It writes
``reference.json`` next to this file with:

- per train workload, the loss curve of the canonical call, and the range the
  final loss and (for train-smoke) ``val_psnr_gain_db`` may take: the median
  over RECORD_SEEDS seeds, widened to twice the largest distance of any of
  those seeds from it;
- for eval-default, the rows of the canonical eval call.
"""

import json
import statistics
import sys
import tempfile
from pathlib import Path

import run

RECORD_SEEDS = {"train-default": range(1, 13), "train-smoke": range(1, 25)}


def widened_range(values):
    mid = statistics.median(values)
    half = 2.0 * max(abs(v - mid) for v in values)
    return [mid - half, mid + half]


def record_train(name, tmp):
    import harness
    import spec

    inp, _, _ = harness.train_setup(name, spec.CANONICAL_SEED, tmp / "canon", {})
    out = {"canonical_losses": [loss for _, loss in harness.read_curve(inp.canon_curve)]}
    finals, gains = [], []
    for seed in RECORD_SEEDS[name]:
        inp = harness.TrainInputs(name, seed, tmp / f"{name}-{seed}")
        inp.build(seed, with_heldout=name == "train-smoke")
        code, _, text = harness.run_cli(inp.train_argv())
        if code != 0:
            raise RuntimeError(f"{name} seed {seed}: train failed: {text}")
        finals.append(harness.read_curve(inp.curve)[-1][1])
        if name == "train-smoke":
            csv_path = inp.work / "heldout.csv"
            harness.run_cli(["eval", "--ckpt", inp.ckpt, "--data", inp.heldout,
                             "--out", csv_path, "--seed", spec.VAL_EVAL_SEED])
            gains.append(harness.eval_gain_db(csv_path))
        print(name, seed, finals[-1], gains[-1] if gains else "", flush=True)
    out["final_losses"] = finals
    out["final_loss_range"] = widened_range(finals)
    if gains:
        out["val_gains"] = gains
        out["val_gain_range"] = widened_range(gains)
    return out


def record_eval(tmp):
    import harness
    import spec

    inp = harness.EvalInputs(tmp / "eval")
    inp.work.mkdir(parents=True)
    harness.save_checkpoint(inp.ckpt, harness.build_eval_checkpoint())
    harness.make_eval_images(inp.canon_data, spec.CANONICAL_SEED,
                             spec.WORKLOADS["eval-default"]["warmup_sizes"])
    code, _, text = harness.run_cli(inp.eval_argv(0, canonical=True))
    if code != 0:
        raise RuntimeError(f"eval failed: {text}")
    return {"canonical_rows": harness.read_eval_csv(inp.canon_csv)}


def main():
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        ref = {name: record_train(name, tmp) for name in ("train-default", "train-smoke")}
        ref["eval-default"] = record_eval(tmp)
    ref["environment"] = harness.environment()
    harness.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
