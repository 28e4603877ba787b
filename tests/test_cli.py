import numpy as np
import pytest

from structkpn.cli import main, parse_config_file, ConfigError
from structkpn.fileio import read_pgm, read_minmax, write_pgm
from structkpn.training import load_checkpoint, CURVE_HEADER


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


def test_config_parses_types(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", lr="0.01", softmax_kernels="false")
    tc = parse_config_file(cfg)
    assert tc.lr == 0.01 and tc.softmax_kernels is False
    assert tc.kernel_size == 5 and tc.noise_sigma == 0.05


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


def test_synth_determinism(tmp_path):
    main(["synth", "--out", str(tmp_path / "a"), "--count", "2",
          "--size", "48", "--seed", "7"])
    main(["synth", "--out", str(tmp_path / "b"), "--count", "2",
          "--size", "48", "--seed", "7"])
    for name in ["img_000.pgm", "img_001.pgm"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
