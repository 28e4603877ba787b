"""Shipping gate: one test per release criterion.

Every test ends with a single ``[acceptance N] <guarantee>: PASS`` print, so a
``pytest -v -s`` run reads as a checklist. Oracles are independent of the
implementation: a pure-python filter loop, LAPACK eigenvalues, the textbook
similarity formula, and finite differences.
"""

import csv
import time

import numpy as np

from structkpn.tensor import (Tensor, add, sub, mul, div, neg, abs_val, relu,
                              softmax_vec, reduce_mean, reduce_sum, conv2d, ssim_map,
                              registered_ops, grad_check)
from structkpn.kpn import (KpnConfig, local_conv, build_model, params_to_tensors,
                           kpn_apply)
from structkpn.gradstats import (GradStatsMap, structure_tensor_eigs, stats_map,
                                 region_class_map, structure_stats,
                                 REGION_FLAT, REGION_FINE, REGION_EDGE)
from structkpn.losses import (SsimConstants, loss_weights, ssim_patch, struct_loss)
from structkpn.corpus import synth_image, block_wave
from structkpn.training import (TrainConfig, train, split_train_val, add_noise,
                                save_checkpoint, load_checkpoint)
from structkpn.metrics import psnr, evaluate
from structkpn.cli import main as cli_main

from helpers import naive_local_conv, direct_ssim


def test_criterion_1_filter_application_matches_reference():
    rng = np.random.default_rng(101)
    t0 = time.time()
    cases = 0
    for k in (3, 5):
        for _ in range(100):
            n = int(rng.integers(1, 3))
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            x = rng.normal(size=(n, 1, h, w))
            v = rng.normal(size=(n, k * k, h, w))
            got = local_conv(Tensor(x), Tensor(v)).data
            want = naive_local_conv(x, v)
            assert np.array_equal(got, want), (n, h, w, k)
            cases += 1
    elapsed = time.time() - t0
    assert cases == 200 and elapsed < 5.0, elapsed
    print("\n[acceptance 1] per-pixel filtering is bit-identical to the "
          f"reference loop over {cases} shapes: PASS")


def test_criterion_2_every_op_passes_finite_difference_checks():
    rng = np.random.default_rng(202)

    def pair(shape=(3, 4)):
        a = Tensor(rng.normal(size=shape), requires_grad=True, name="a")
        b = Tensor(rng.normal(size=shape), requires_grad=True, name="b")
        return a, b

    def away_from_zero(shape=(3, 4)):
        return Tensor(rng.normal(size=shape) + np.sign(rng.normal(size=shape)) * 0.5,
                      requires_grad=True, name="a")

    proj = Tensor(rng.normal(size=(3, 4)))

    def score(expr):
        return reduce_sum(mul(expr, proj))

    def conv_case():
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True, name="x")
        w = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True, name="w")
        b = Tensor(rng.normal(size=4), requires_grad=True, name="b")
        u = Tensor(rng.normal(size=(1, 4, 5, 5)))
        return (lambda p: reduce_sum(mul(conv2d(p[0], p[1], p[2], groups=2), u)),
                [x, w, b])

    def local_conv_case():
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True, name="x")
        v = Tensor(rng.normal(size=(1, 9, 4, 4)), requires_grad=True, name="v")
        u = Tensor(rng.normal(size=(1, 1, 4, 4)))
        return (lambda p: reduce_sum(mul(local_conv(p[0], p[1]), u)), [x, v])

    def ssim_map_case():
        # both images take a gradient, and windows reach past every border
        p = Tensor(rng.uniform(size=(2, 1, 4, 5)), requires_grad=True, name="p")
        q = Tensor(rng.uniform(size=(2, 1, 4, 5)), requires_grad=True, name="q")
        u = Tensor(rng.normal(size=(2, 1, 4, 5)))
        return (lambda ps: reduce_sum(mul(ssim_map(ps[0], ps[1], SsimConstants(window=3)), u)),
                [p, q])

    a, b = pair()
    builders = {
        "add": (lambda p: score(add(p[0], p[1])), [a, b]),
        "sub": (lambda p: score(sub(p[0], p[1])), list(pair())),
        "mul": (lambda p: score(mul(p[0], p[1])), list(pair())),
        "div": (lambda p: score(div(p[0], p[1])),
                [away_from_zero(), away_from_zero()]),
        "neg": (lambda p: score(neg(p[0])), [away_from_zero()]),
        "abs": (lambda p: score(abs_val(p[0])), [away_from_zero()]),
        "relu": (lambda p: score(relu(p[0])), [away_from_zero()]),
        "softmax": (lambda p: score(softmax_vec(p[0], axis=1)), [away_from_zero()]),
        "reduce_mean": (lambda p: reduce_mean(mul(p[0], proj)), [away_from_zero()]),
        "reduce_sum": (lambda p: reduce_sum(mul(p[0], proj)), [away_from_zero()]),
        "conv2d": conv_case(),
        "local_conv": local_conv_case(),
        "ssim_map": ssim_map_case(),
    }
    # a new op cannot ship without a matching finite-difference case
    assert set(builders) == set(registered_ops())

    for name, (f, params) in builders.items():
        report = grad_check(f, params, coords_per_param=10)
        assert report.passed, (name, report.per_param)

    # composite: the full training loss through the filter-predicting network
    cfg = KpnConfig(kernel_size=3, stem_channels=8, num_res_blocks=1, groups=2,
                    softmax_normalize_kernels=True)
    tensors = params_to_tensors(build_model(cfg, seed=7))
    names = sorted(tensors)
    plist = [tensors[n] for n in names]
    clean = synth_image(16, np.random.default_rng(3))[:8, :8]
    noisy = np.clip(clean + 0.1 * np.random.default_rng(4).normal(size=clean.shape), 0, 1)
    weights = loss_weights(stats_map(clean, 3))
    consts = SsimConstants(window=3)
    x = Tensor(noisy[None, None])
    y = clean[None, None]

    def full_loss(params):
        _, den = kpn_apply(dict(zip(names, params)), x, cfg)
        return struct_loss(den, y, [weights], consts)

    report = grad_check(full_loss, plist, tol=1e-3, coords_per_param=8)
    assert report.passed, report.per_param
    print("\n[acceptance 2] every registered op and the end-to-end loss pass "
          "finite-difference gradient checks: PASS")


def test_criterion_3_eigenvalues_match_lapack():
    rng = np.random.default_rng(303)
    for _ in range(500):
        rows = int(rng.choice([9, 25, 121]))
        g = rng.normal(size=(rows, 2)) * rng.uniform(0.01, 2.0)
        lam1, lam2 = structure_tensor_eigs(g)
        want = np.linalg.eigvalsh(g.T @ g)  # ascending
        assert abs(lam1 - want[1]) <= 1e-10 * max(1.0, want[1])
        assert abs(lam2 - want[0]) <= 1e-10 * max(1.0, want[1])
        assert lam1 >= lam2 >= 0.0
        _, mu = structure_stats(g)
        assert 0.0 <= mu <= 1.0

    # rank-1 patch: every gradient parallel -> full anisotropy, exactly
    direction = np.array([3.0, -2.0])
    g = np.outer(np.arange(1, 10, dtype=np.float64), direction)
    _, mu = structure_stats(g)
    assert mu == 1.0

    # constant patch: zero tensor, anisotropy defined as zero
    lam1, lam2 = structure_tensor_eigs(np.zeros((25, 2)))
    assert lam1 == 0.0 and lam2 == 0.0
    s, mu = structure_stats(np.zeros((25, 2)))
    assert s == 0.0 and mu == 0.0
    print("\n[acceptance 3] closed-form structure-tensor eigenvalues match "
          "LAPACK over 500 draws, with exact rank-1 and flat limits: PASS")


def test_criterion_4_loss_weight_softmax_properties():
    rng = np.random.default_rng(404)
    strength = rng.uniform(0.0, 3.0, size=(100, 100))
    coherence = rng.uniform(0.0, 1.0, size=(100, 100))
    stats = GradStatsMap(strength=strength, coherence=coherence, patch_size=11)
    lw = loss_weights(stats, sigma_l2=1.8, sigma_l1=0.35)
    stack = np.stack([lw.gamma1, lw.gamma2, lw.gamma3])
    assert np.all(stack > 0.0)
    assert np.max(np.abs(stack.sum(axis=0) - 1.0)) <= 1e-9

    raw = np.stack([coherence * 1.8, np.full_like(strength, 0.35), strength])
    assert np.array_equal(np.argmax(stack, axis=0), np.argmax(raw, axis=0))

    flat = GradStatsMap(strength=np.zeros((4, 4)), coherence=np.zeros((4, 4)),
                        patch_size=11)
    lf = loss_weights(flat)
    assert np.all(lf.gamma2 > lf.gamma1) and np.all(lf.gamma2 > lf.gamma3)
    expected_g2 = np.exp(0.35) / (2.0 + np.exp(0.35))
    assert np.allclose(lf.gamma2, expected_g2, atol=1e-12)
    print("\n[acceptance 4] loss-weight softmax sums to one, keeps the raw "
          "argmax, and defaults flat regions to the robust term over "
          "10000 random stat pairs: PASS")


def test_criterion_5_similarity_score_self_symmetry_formula():
    rng = np.random.default_rng(505)
    consts = SsimConstants()
    for _ in range(100):
        scale = rng.uniform(0.2, 1.0)
        p = rng.uniform(0, scale, size=(11, 11))
        q = np.clip(p + rng.normal(scale=0.1, size=(11, 11)), 0, 1)
        assert ssim_patch(p, p, consts) == 1.0
        assert ssim_patch(q, q, consts) == 1.0
        spq = ssim_patch(p, q, consts)
        assert spq == ssim_patch(q, p, consts)
        assert abs(spq - direct_ssim(p, q, consts.c1, consts.c2)) <= 1e-10
        assert spq <= 1.0 + 1e-12
    print("\n[acceptance 5] similarity score is exactly 1 on identical "
          "patches, symmetric, and matches the direct formula on 100 "
          "random pairs: PASS")


SMOKE = dict(model_kind="kpn", loss_kind="struct", seed=5, batch_size=4,
             patch_size=48, lr=1e-3, kernel_size=5, stem_channels=16,
             num_res_blocks=2, groups=2, softmax_kernels=True, k_r=11,
             noise_kind="gaussian", noise_sigma=0.1)


def smoke_corpus():
    return [synth_image(96, np.random.default_rng([4, i])) for i in range(12)]


def test_criterion_6_training_smoke_reaches_psnr_gain():
    cfg = TrainConfig(steps=500, val_interval=100, **SMOKE)
    images = smoke_corpus()
    _, val_imgs = split_train_val(images)
    nm = cfg.noise_model()
    noisy_psnr = float(np.mean(
        [psnr(im, add_noise(im, nm, np.random.default_rng([cfg.seed, 91, i])))
         for i, im in enumerate(val_imgs)]))

    t0 = time.time()
    ckpt, rows = train(cfg, images)
    elapsed = time.time() - t0
    assert elapsed < 600.0, elapsed

    assert ckpt.step == 500
    final_val = rows[-1][2]
    assert final_val is not None
    gain = final_val - noisy_psnr
    assert gain >= 3.0, (noisy_psnr, final_val)

    # bit-determinism of the whole loop: identical prefix runs, twice
    short = TrainConfig(steps=25, val_interval=10 ** 9, **SMOKE)
    c1, r1 = train(short, images)
    c2, r2 = train(short, images)
    assert r1 == r2
    assert all(np.array_equal(c1.params[k], c2.params[k]) for k in c1.params)
    print(f"\n[acceptance 6] 500-step training run lifts validation psnr by "
          f"{gain:.2f} dB (>= 3 dB) in {elapsed:.0f}s and replays "
          "bit-identically: PASS")


def test_criterion_7_ablation_grid_every_cell_improves(tmp_path):
    images = smoke_corpus()
    _, val_imgs = split_train_val(images)
    named = [(f"img_{i:03d}", im) for i, im in enumerate(val_imgs)]
    out = tmp_path / "ablation.csv"
    results = []
    for model in ("plain-cnn", "kpn"):
        for loss in ("l1", "struct"):
            cfg = TrainConfig(steps=240, val_interval=10 ** 9,
                              **{**SMOKE, "model_kind": model, "loss_kind": loss})
            ckpt, _ = train(cfg, images)
            rep = evaluate(ckpt, named, seed=17)
            results.append((model, loss, rep.mean_psnr_noisy,
                            rep.mean_psnr_denoised,
                            rep.mean_psnr_denoised - rep.mean_psnr_noisy))
    with open(out, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["model", "loss", "psnr_noisy", "psnr_denoised", "gain"])
        for row in results:
            wr.writerow([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4])])

    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    for row in rows:
        assert float(row["gain"]) > 0.0, row
    print("\n[acceptance 7] all four model x loss ablation cells improve "
          "psnr over the noisy input (gains "
          + ", ".join(f"{r[4]:+.1f}" for r in results) + " dB): PASS")


def test_criterion_8_region_maps_identify_zones():
    n = 96
    img = np.full((n, n), 0.3)
    img[:, 63:] = 0.8
    yy, xx = np.mgrid[0:n, 0:n]
    disc = (yy - 48) ** 2 + (xx - 28) ** 2 <= 18 ** 2
    wave = np.outer(block_wave(n), block_wave(n))
    img[disc] = (0.5 + 0.4 * wave)[disc]

    labels = region_class_map(stats_map(img, 11))

    edge_zone = (xx >= 58) & (xx <= 67)
    fine_zone = (yy - 48) ** 2 + (xx - 28) ** 2 <= 11 ** 2
    far_from_disc = (yy - 48) ** 2 + (xx - 28) ** 2 >= 27 ** 2
    flat_zone = ((xx < 52) | (xx > 73)) & far_from_disc

    for zone, want, tag in [(edge_zone, REGION_EDGE, "edge"),
                            (fine_zone, REGION_FINE, "textured"),
                            (flat_zone, REGION_FLAT, "flat")]:
        acc = np.mean(labels[zone] == want)
        assert acc >= 0.9, (tag, acc)
    print("\n[acceptance 8] region classification recovers the edge, "
          "textured, and flat zones of a synthetic scene at >= 90% "
          "per-zone accuracy: PASS")


def test_criterion_9_checkpoints_and_cli_are_reproducible(tmp_path):
    images = [synth_image(64, np.random.default_rng([8, i])) for i in range(4)]
    cfg = TrainConfig(steps=12, val_interval=6,
                      **{**SMOKE, "patch_size": 32, "stem_channels": 8,
                         "num_res_blocks": 1})
    ckpt, _ = train(cfg, images)

    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()

    # split run == straight run, bit for bit
    half, _ = train(TrainConfig(steps=6, val_interval=6,
                                **{**SMOKE, "patch_size": 32, "stem_channels": 8,
                                   "num_res_blocks": 1}), images)
    resumed, _ = train(cfg, images, start=half)
    assert all(np.array_equal(resumed.params[k], ckpt.params[k])
               for k in ckpt.params)

    # the command-line pipeline, run twice, emits byte-identical files
    outputs = {}
    for tag in ("x", "y"):
        d = tmp_path / tag
        data = d / "data"
        assert cli_main(["synth", "--out", str(data), "--count", "3",
                         "--size", "64", "--seed", "21"]) == 0
        cfg_path = d / "run.cfg"
        cfg_path.write_text(
            "model_kind = kpn\nloss_kind = struct\nseed = 9\nsteps = 8\n"
            "batch_size = 2\npatch_size = 32\nlr = 0.001\nval_interval = 4\n"
            "kernel_size = 5\nstem_channels = 8\nnum_res_blocks = 1\n"
            "groups = 2\nsoftmax_kernels = true\nk_r = 7\n"
            "noise_kind = gaussian\nnoise_sigma = 0.1\n")
        ck = d / "run.ckpt"
        curve = d / "curve.csv"
        assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                         "--out", str(ck), "--curve", str(curve)]) == 0
        den = d / "den.pgm"
        img0 = sorted(data.glob("*.pgm"))[0]
        assert cli_main(["denoise", "--ckpt", str(ck), "--input", str(img0),
                         "--output", str(den)]) == 0
        ev = d / "eval.csv"
        assert cli_main(["eval", "--ckpt", str(ck), "--data", str(data),
                         "--out", str(ev), "--seed", "3"]) == 0
        outputs[tag] = [p.read_bytes() for p in (ck, curve, den, ev)]
    assert outputs["x"] == outputs["y"]
    print("\n[acceptance 9] checkpoint save/load round-trips byte-identically, "
          "resume matches the straight run bit for bit, and the full CLI "
          "pipeline replays byte-identically: PASS")
