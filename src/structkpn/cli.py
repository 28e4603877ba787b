"""Command-line front end: synth | stats | train | denoise | eval.

Exit codes: 0 on success, 1 for usage/config/file problems, 2 when training
aborts on a non-finite loss (the message names the failing step). All file
outputs are byte-deterministic for a fixed command line and inputs. ``stats``
draws its maps with the loss-weight constants training uses, ``gradstats``'
defaults.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import synth_corpus
from .fileio import read_pgm, write_pgm, write_scaled_pgm
from .gradstats import stats_map, region_class_map
from .kpn import denoise_image
from .metrics import evaluate
from .training import (TrainConfig, TrainingDiverged, load_checkpoint,
                       save_checkpoint, train, write_curve_csv)

__all__ = ["main", "parse_config_file", "ConfigError"]

REGION_GRAY = {0: 0, 1: 128, 2: 255}   # flat, fine, edge


class ConfigError(ValueError):
    pass


def _convert(key, text, target):
    if isinstance(target, bool):
        low = text.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {text!r}")
    try:
        if isinstance(target, int):
            return int(text)
        if isinstance(target, float):
            return float(text)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: expected {type(target).__name__}, got {text!r}") from None
    return text.strip("\"'")


def parse_config_file(path):
    """Read ``key = value`` lines (# comments allowed) into a TrainConfig."""
    path = Path(path)
    defaults = TrainConfig()
    known = {f.name for f in fields(TrainConfig)}
    overrides = {}
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in known:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        overrides[key] = _convert(key, val, getattr(defaults, key))
    try:
        return TrainConfig(**overrides)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _load_dir(data_dir):
    paths = sorted(Path(data_dir).glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm images found in {data_dir}")
    return paths, [read_pgm(p) for p in paths]


def _parse_pixel_list(text):
    toks = [t.strip() for t in text.replace(";", ",").split(",")]
    toks = [t for t in toks if t]
    if not toks or len(toks) % 2 != 0:
        raise ValueError(f"--dump-kernels expects comma-separated m,n pairs, got {text!r}")
    try:
        vals = [int(t) for t in toks]
    except ValueError:
        raise ValueError(
            f"--dump-kernels expects integer coordinates, got {text!r}") from None
    return list(zip(vals[::2], vals[1::2]))


def cmd_synth(args):
    paths = synth_corpus(args.out, args.count, args.size, args.seed)
    print(f"wrote {len(paths)} images to {args.out}")
    return 0


def cmd_stats(args):
    img = read_pgm(args.image)
    stats = stats_map(img, args.k_r)
    labels = region_class_map(stats)
    prefix = args.out_prefix
    written = []
    written += write_scaled_pgm(f"{prefix}.strength.pgm", stats.strength)
    written += write_scaled_pgm(f"{prefix}.coherence.pgm", stats.coherence)
    gray = sum((labels == k) * (v / 255.0) for k, v in REGION_GRAY.items())
    written.append(write_pgm(f"{prefix}.regions.pgm", gray, maxval=255))
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_train(args):
    cfg = parse_config_file(args.config)
    _, images = _load_dir(args.data)
    start = load_checkpoint(args.resume) if args.resume else None
    ckpt, curve = train(cfg, images, start)
    save_checkpoint(args.out, ckpt)
    print(f"wrote checkpoint {args.out} at step {ckpt.step}")
    if args.curve:
        write_curve_csv(args.curve, curve)
        print(f"wrote curve {args.curve}")
    if curve:
        last_val = next((r for r in reversed(curve) if r[2] is not None), None)
        print(f"final loss {curve[-1][1]:.6f}"
              + (f", val psnr {last_val[2]:.3f} dB" if last_val else ""))
    return 0


def cmd_denoise(args):
    ckpt = load_checkpoint(args.ckpt)
    img = read_pgm(args.input)
    pixels = [] if args.dump_kernels is None else _parse_pixel_list(args.dump_kernels)
    den, kernels = denoise_image(ckpt.params, ckpt.config.kpn_config(), img, pixels)
    base = Path(args.output).with_suffix("")
    for (m, n), kern in zip(pixels, kernels):
        for p in write_scaled_pgm(f"{base}.kernel_{m}_{n}.pgm", kern):
            print(f"wrote {p}")
    write_pgm(args.output, den)
    print(f"wrote {args.output}")
    return 0


def cmd_eval(args):
    ckpt = load_checkpoint(args.ckpt)
    paths, images = _load_dir(args.data)
    report = evaluate(ckpt, [(p.name, im) for p, im in zip(paths, images)], seed=args.seed)
    report.to_csv(args.out)
    print(f"wrote {args.out}")
    print(f"mean psnr: noisy {report.mean_psnr_noisy:.3f} dB, "
          f"denoised {report.mean_psnr_denoised:.3f} dB")
    print(f"mean ssim: noisy {report.mean_ssim_noisy:.4f}, "
          f"denoised {report.mean_ssim_denoised:.4f}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="structkpn",
                                description="Per-pixel filter-predicting denoiser toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic training corpus")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--size", type=int, default=96)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("stats", help="write gradient-statistics maps for an image")
    s.add_argument("--image", required=True)
    s.add_argument("--out-prefix", required=True)
    s.add_argument("--k-r", type=int, default=TrainConfig.k_r)
    s.set_defaults(func=cmd_stats)

    s = sub.add_parser("train", help="train a model on a directory of PGM images")
    s.add_argument("--config", required=True, help="key = value config file")
    s.add_argument("--data", required=True, help="directory of clean PGM images")
    s.add_argument("--out", required=True, help="checkpoint path to write")
    s.add_argument("--curve", default=None, help="optional loss-curve CSV path")
    s.add_argument("--resume", default=None, help="checkpoint to continue from")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("denoise", help="run a checkpoint on one image")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.add_argument("--dump-kernels", default=None, metavar="M,N[,M,N...]",
                   help="also write the predicted filters at these pixels")
    s.set_defaults(func=cmd_denoise)

    s = sub.add_parser("eval", help="score a checkpoint over a dataset")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="per-image CSV report path")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_eval)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return int(args.func(args) or 0)
    except TrainingDiverged as e:
        print(f"error: training aborted: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
