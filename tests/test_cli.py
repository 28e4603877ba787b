import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from structkpn import kpn
from structkpn.cli import main, parse_config_file, ConfigError
from structkpn.corpus import synth_corpus
from structkpn.fileio import read_pgm, write_pgm
from structkpn.kpn import build_model
from structkpn.training import (Checkpoint, init_adam, load_checkpoint, save_checkpoint,
                                CURVE_HEADER,
                                TrainConfig)
from helpers import read_minmax, traced


def write_cfg(path, **overrides):
    base = {
        "model_kind": "kpn",
        "loss_kind": "struct",
        "seed": 3,
        "steps": 6,
        "batch_size": 2,
        "patch_size": 32,
        "lr": 1e-3,
        "val_interval": 3,
        "kernel_size": 5,
        "stem_channels": 8,
        "num_res_blocks": 1,
        "groups": 2,
        "softmax_kernels": True,
        "k_r": 7,
        "noise_kind": "gaussian",
        "noise_sigma": 0.05,
    }
    base.update(overrides)
    lines = ["# training run"] + [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_usage_errors():
    # --help is SystemExit(0) inside main, mapped to success
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["train"]) == 1
    assert main(["no-such-verb"]) == 1


def test_unknown_config_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model_kind = kpn\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config_file(cfg)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path),
               "--out", str(out / "c.ckpt")])
    assert rc == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("lr", "nan"), ("lr", "inf"),
                                        ("noise_sigma", "nan"), ("poisson_scale", "nan")])
def test_non_finite_config_values_fail_at_parse(tmp_path, key, value):
    cfg = write_cfg(tmp_path / "n.cfg", **{key: value})
    with pytest.raises(ConfigError, match=f"n.cfg: {key} must be finite"):
        parse_config_file(cfg)


def test_fixed_constants_are_neither_config_keys_nor_stats_options(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("seed = 1\nbeta1 = 0.9\n")
    with pytest.raises(ConfigError, match="old.cfg:2: unknown config key 'beta1'"):
        parse_config_file(cfg)
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path),
               "--out", str(tmp_path / "c.ckpt")])
    assert rc == 1 and "beta1" in capsys.readouterr().err
    assert main(["stats", "--help"]) == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--image", "--out-prefix", "--k-r"}


def test_config_parses_types(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", lr="0.01", softmax_kernels="false")
    tc = parse_config_file(cfg)
    assert tc.lr == 0.01 and tc.softmax_kernels is False
    assert tc.kernel_size == 5 and tc.noise_sigma == 0.05


def test_readme_config_block_shows_every_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Training config file", 1)[1].split("```ini\n", 1)[1]
    block = block.split("```", 1)[0]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    assert parse_config_file(cfg) == TrainConfig()
    named = [ln.split("#", 1)[0].partition("=")[0].strip() for ln in block.splitlines()]
    assert sorted(filter(None, named)) == sorted(f.name for f in fields(TrainConfig))


def test_full_pipeline(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--count", "4", "--size", "64",
                 "--seed", "11"]) == 0
    pgms = sorted(data.glob("*.pgm"))
    assert len(pgms) == 4

    prefix = str(tmp_path / "maps")
    assert main(["stats", "--image", str(pgms[0]), "--out-prefix", prefix,
                 "--k-r", "7"]) == 0
    strength = read_pgm(prefix + ".strength.pgm")
    assert strength.shape == (64, 64)
    lo, hi = read_minmax(prefix + ".strength.pgm.minmax.txt")
    assert hi >= lo
    regions = read_pgm(prefix + ".regions.pgm")
    vals = set(np.unique(np.round(regions * 255).astype(int)))
    assert vals <= {0, 128, 255}

    cfg = write_cfg(tmp_path / "run.cfg")
    ckpt_path = tmp_path / "run.ckpt"
    curve_path = tmp_path / "curve.csv"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(ckpt_path), "--curve", str(curve_path)]) == 0
    ckpt = load_checkpoint(ckpt_path)
    assert ckpt.step == 6
    lines = curve_path.read_text().strip().split("\n")
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 7

    den_path = tmp_path / "den.pgm"
    assert main(["denoise", "--ckpt", str(ckpt_path), "--input", str(pgms[0]),
                 "--output", str(den_path), "--dump-kernels", "3,3,10,12"]) == 0
    den = read_pgm(den_path)
    assert den.shape == (64, 64)
    for m, n in [(3, 3), (10, 12)]:
        kp = tmp_path / f"den.kernel_{m}_{n}.pgm"
        assert kp.exists()
        assert read_pgm(kp).shape == (5, 5)
        # scaled dump carries its range in the sidecar
        read_minmax(str(kp) + ".minmax.txt")

    eval_path = tmp_path / "eval.csv"
    assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(data),
                 "--out", str(eval_path), "--seed", "4"]) == 0
    rows = eval_path.read_text().strip().split("\n")
    assert rows[0].startswith("file,psnr_noisy")
    assert len(rows) == 5  # header + 4 files


def test_pipeline_resume(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "3", "--size", "64",
          "--seed", "2"])
    cfg4 = write_cfg(tmp_path / "a.cfg", steps=4)
    cfg8 = write_cfg(tmp_path / "b.cfg", steps=8)
    p1 = tmp_path / "p1.ckpt"
    assert main(["train", "--config", str(cfg4), "--data", str(data),
                 "--out", str(p1)]) == 0
    p2 = tmp_path / "p2.ckpt"
    assert main(["train", "--config", str(cfg8), "--data", str(data),
                 "--out", str(p2), "--resume", str(p1)]) == 0
    straight = tmp_path / "p3.ckpt"
    assert main(["train", "--config", str(cfg8), "--data", str(data),
                 "--out", str(straight)]) == 0
    assert p2.read_bytes() == straight.read_bytes()


def test_divergence_exit_code(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "64",
          "--seed", "1"])
    cfg = write_cfg(tmp_path / "d.cfg", lr=1e80, softmax_kernels=False,
                    loss_kind="l2", steps=10)
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "d.ckpt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 2" in err and "training aborted" in err


def test_denoise_kernel_dump_validation(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "64",
          "--seed", "9"])
    cfg = write_cfg(tmp_path / "c.cfg", steps=1)
    ckpt_path = tmp_path / "c.ckpt"
    main(["train", "--config", str(cfg), "--data", str(data),
          "--out", str(ckpt_path)])
    img = sorted(data.glob("*.pgm"))[0]
    # odd-length pixel list
    rc = main(["denoise", "--ckpt", str(ckpt_path), "--input", str(img),
               "--output", str(tmp_path / "x.pgm"), "--dump-kernels", "3,3,5"])
    assert rc == 1
    # out-of-bounds coordinate names the pixel and the image size
    rc = main(["denoise", "--ckpt", str(ckpt_path), "--input", str(img),
               "--output", str(tmp_path / "y.pgm"), "--dump-kernels", "99,3"])
    assert rc == 1
    assert "99" in capsys.readouterr().err
    # pixels are checked before anything is written, not after the valid ones
    rc = main(["denoise", "--ckpt", str(ckpt_path), "--input", str(img),
               "--output", str(tmp_path / "w.pgm"), "--dump-kernels", "3,3,99,3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(99, 3)" in err and "64x64" in err
    assert not list(tmp_path.glob("w.*")) and not list(tmp_path.glob("y.*"))
    # plain-cnn checkpoints have no filters to dump
    cfg2 = write_cfg(tmp_path / "p.cfg", model_kind="plain-cnn", steps=1)
    ckpt2 = tmp_path / "p.ckpt"
    main(["train", "--config", str(cfg2), "--data", str(data),
          "--out", str(ckpt2)])
    rc = main(["denoise", "--ckpt", str(ckpt2), "--input", str(img),
               "--output", str(tmp_path / "z.pgm"), "--dump-kernels", "3,3"])
    assert rc == 1


def test_denoise_dumps_kernels_across_column_strips(tmp_path, monkeypatch):
    # a 40-wide image of noise, so that a short halo shows, against strips
    # forced to 8 columns, each with a halo of 3 columns: the denoised image
    # and the kernels dumped at pixels in the strips' halo columns are what
    # one unstripped stream writes
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "48", "--seed", "8"])
    cfg = write_cfg(tmp_path / "s.cfg", steps=0, val_interval=0)
    ckpt = tmp_path / "s.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    wide = write_pgm(tmp_path / "wide.pgm", np.random.default_rng(57).random((12, 40)))
    pixels = [(0, 7), (5, 8), (6, 23), (11, 39)]
    outputs = {}
    for cap in (8, 512):
        monkeypatch.setattr(kpn, "_STRIP_COLUMNS", cap)
        out = tmp_path / f"den{cap}.pgm"
        assert main(["denoise", "--ckpt", str(ckpt), "--input", str(wide), "--output", str(out),
                     "--dump-kernels", ",".join(f"{m},{n}" for m, n in pixels)]) == 0
        outputs[cap] = [read_pgm(out)] + [
            (read_pgm(tmp_path / f"den{cap}.kernel_{m}_{n}.pgm"),
             read_minmax(tmp_path / f"den{cap}.kernel_{m}_{n}.pgm.minmax.txt"))
            for m, n in pixels]
    den, *kernels = outputs[8]
    assert den.shape == (12, 40)
    assert np.allclose(den, outputs[512][0], rtol=0, atol=1 / 65535)
    for (kern, span), (whole, whole_span) in zip(kernels, outputs[512][1:]):
        assert np.allclose(kern, whole, rtol=0, atol=1 / 65535)
        assert np.allclose(span, whole_span, rtol=0, atol=1e-12)


def test_denoise_of_a_nan_checkpoint_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "48", "--seed", "6"])
    cfg = write_cfg(tmp_path / "n.cfg", steps=0, val_interval=0)
    ckpt_path = tmp_path / "n.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(ckpt_path)]) == 0
    ckpt = load_checkpoint(ckpt_path)
    ckpt.params["head.b"] = np.full_like(ckpt.params["head.b"], np.nan)
    save_checkpoint(ckpt_path, ckpt)
    capsys.readouterr()
    out = tmp_path / "den.pgm"
    rc = main(["denoise", "--ckpt", str(ckpt_path), "--input", str(data / "img_000.pgm"),
               "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "den.pgm" in err and "non-finite" in err
    assert not out.exists()


def test_missing_file_exits_one(tmp_path, capsys):
    rc = main(["denoise", "--ckpt", str(tmp_path / "nope.ckpt"),
               "--input", str(tmp_path / "nope.pgm"),
               "--output", str(tmp_path / "o.pgm")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_directory_without_pgm_files_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "48", "--seed", "5"])
    cfg = write_cfg(tmp_path / "t.cfg", steps=0, val_interval=0)
    ckpt = tmp_path / "t.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not an image\n")
    for argv in (["eval", "--ckpt", str(ckpt), "--data", str(empty),
                  "--out", str(tmp_path / "e.csv")],
                 ["train", "--config", str(cfg), "--data", str(empty),
                  "--out", str(tmp_path / "u.ckpt")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(empty) in err and "Traceback" not in err


def test_eval_checks_every_image_before_denoising(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "48", "--seed", "5"])
    cfg = write_cfg(tmp_path / "t.cfg", steps=0, val_interval=0)
    ckpt = tmp_path / "t.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    rng = np.random.default_rng(6)
    write_pgm(mixed / "a_big.pgm", rng.random((32, 32)))
    write_pgm(mixed / "b_small.pgm", rng.random((8, 40)))   # under the 11x11 SSIM window
    out = tmp_path / "e.csv"
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(mixed), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "b_small.pgm" in err and "Traceback" not in err
    assert not out.exists()


def test_train_checks_validation_images_before_step_one(tmp_path, capsys, monkeypatch):
    # 9x9 images fit an 8x8 patch but not the 11x11 SSIM window of validation
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(9)
    for i in range(5):
        write_pgm(data / f"img_{i}.pgm", rng.random((9, 9)))
    cfg = write_cfg(tmp_path / "v.cfg", patch_size=8, kernel_size=3, k_r=5,
                    val_interval=2, steps=2)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before the validation images were checked")

    monkeypatch.setattr("structkpn.training.kpn_apply", no_step)
    out = tmp_path / "v.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "validation image 4" in err and "11x11" in err and "Traceback" not in err
    assert not out.exists()


def test_truncated_checkpoint_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "2", "--size", "48", "--seed", "5"])
    cfg = write_cfg(tmp_path / "t.cfg", steps=1, val_interval=0)
    ckpt = tmp_path / "t.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    full = ckpt.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in (10, len(full) // 2, len(full) - 1):
        cut.write_bytes(full[:size])
        capsys.readouterr()
        rc = main(["denoise", "--ckpt", str(cut), "--input", str(data / "img_000.pgm"),
                   "--output", str(tmp_path / "o.pgm")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "cut.ckpt" in err and "Traceback" not in err


def test_eval_of_a_default_model_on_256_squared_stays_under_25_mib(tmp_path):
    # the stream holds bands of about 2,048 pixels, and eval never reads the
    # Adam moments, two thirds of the checkpoint's payload
    cfg = TrainConfig(steps=0, val_interval=0)
    model_cfg = cfg.kpn_config()
    params = build_model(model_cfg, seed=0)             # a He-init backbone
    x = np.arange(model_cfg.kernel_size) - model_cfg.kernel_size // 2
    blur = np.outer(np.exp(-x * x / 0.5), np.exp(-x * x / 0.5)).ravel()
    params["head.b"] = blur / blur.sum()                # a normalised Gaussian, sigma 0.5
    params["head.w"] *= 1e-3                            # so the filters stay near that blur
    state = init_adam(params)
    ckpt = save_checkpoint(tmp_path / "m.ckpt", Checkpoint(
        config=cfg, step=0, params=params, adam_m=state.m, adam_v=state.v,
        rng_state=np.random.default_rng(0).bit_generator.state))
    del params, state
    synth_corpus(tmp_path / "data", 1, 256, seed=4)
    rc, peak, _ = traced(main, ["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"),
                                "--out", str(tmp_path / "e.csv")])
    row = (tmp_path / "e.csv").read_text().splitlines()[1].split(",")
    assert rc == 0 and float(row[3]) > float(row[1])    # denoised PSNR beats noisy
    assert peak < 25 * 2 ** 20, peak / 2 ** 20


def test_synth_determinism(tmp_path):
    main(["synth", "--out", str(tmp_path / "a"), "--count", "2",
          "--size", "48", "--seed", "7"])
    main(["synth", "--out", str(tmp_path / "b"), "--count", "2",
          "--size", "48", "--seed", "7"])
    for name in ["img_000.pgm", "img_001.pgm"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
