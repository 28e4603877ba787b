import dataclasses
import importlib.util
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from structkpn import kpn, tensor, training
from structkpn.corpus import synth_corpus, synth_image
from structkpn.kpn import KpnConfig, denoise_image, expected_param_shapes
from structkpn.training import (TrainConfig, init_adam, adam_step,
                                split_train_val, sample_patch_pairs,
                                TrainingDiverged, train,
                                save_checkpoint, load_checkpoint,
                                write_curve_csv, CURVE_HEADER)
from helpers import default_checkpoint, one_blas_thread, traced

TINY_KW = dict(kernel_size=5, stem_channels=8, num_res_blocks=1, groups=2,
               patch_size=32, batch_size=2, lr=1e-3, softmax_kernels=True, seed=3)


def small_corpus(n=5, size=64, seed=7):
    return [synth_image(size, np.random.default_rng([seed, i])) for i in range(n)]


def test_adam_step_first_step_closed_form():
    rng = np.random.default_rng(62)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    lr, eps = 1e-3, 1e-8
    new_p, state = adam_step(params, grads, init_adam(params), lr, 0.9, 0.999, eps)
    assert state.t == 1
    for k in params:
        g = grads[k]
        # bias correction at t=1 collapses to g / (|g| + eps)
        want = params[k] - lr * g / (np.abs(g) + eps)
        assert np.allclose(new_p[k], want, rtol=0, atol=1e-15)
        assert np.allclose(state.m[k], 0.1 * g)
        assert np.allclose(state.v[k], 0.001 * g * g)


def test_adam_two_steps_match_manual_recurrence():
    params = {"w": np.array([1.0, -2.0])}
    g1 = {"w": np.array([0.5, 0.25])}
    g2 = {"w": np.array([-0.1, 0.7])}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p1, s1 = adam_step(params, g1, init_adam(params), lr, b1, b2, eps)
    p2, s2 = adam_step(p1, g2, s1, lr, b1, b2, eps)

    m = (1 - b1) * g1["w"]
    v = (1 - b2) * g1["w"] ** 2
    w = params["w"] - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2["w"]
    v = b2 * v + (1 - b2) * g2["w"] ** 2
    w = w - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
    assert np.allclose(p2["w"], w, atol=1e-15)
    assert s2.t == 2
    # inputs are never mutated
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_key_mismatch_raises():
    params = {"a": np.zeros(2)}
    with pytest.raises(KeyError):
        adam_step(params, {"b": np.zeros(2)}, init_adam(params), 1e-3, 0.9, 0.999, 1e-8)


def test_split_train_val_rounding():
    assert split_train_val([1]) == ([1], [])
    assert split_train_val([1, 2]) == ([1], [2])
    assert split_train_val([1, 2, 3, 4, 5]) == ([1, 2, 3, 4], [5])
    tr, va = split_train_val(list(range(10)))
    assert tr == list(range(8)) and va == [8, 9]


def test_sample_patch_pairs_shapes_and_determinism():
    cfg = TrainConfig(**TINY_KW)
    imgs = small_corpus()
    x1, y1, w1 = sample_patch_pairs(imgs, cfg, np.random.default_rng(5))
    x2, y2, w2 = sample_patch_pairs(imgs, cfg, np.random.default_rng(5))
    assert x1.shape == y1.shape == (2, 1, 32, 32)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert len(w1) == 2
    assert np.array_equal(w1[0].gamma3, w2[0].gamma3)
    # clean patches are crops of the corpus; noisy differ from clean
    assert not np.array_equal(x1, y1)
    x3, _, w3 = sample_patch_pairs(imgs, cfg, np.random.default_rng(5), with_weights=False)
    assert w3 == [] and np.array_equal(x3, x1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(model_kind="mlp")
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="ssim")
    with pytest.raises(ValueError):
        TrainConfig(patch_size=16)    # < kernel_size 21 + k_r 11
    with pytest.raises(ValueError):
        TrainConfig(k_r=4)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(noise_kind="speckle")
    cfg = TrainConfig(**TINY_KW)
    assert cfg.kpn_config() == KpnConfig(kernel_size=5, stem_channels=8,
                                         num_res_blocks=1, groups=2,
                                         softmax_normalize_kernels=True)
    plain = TrainConfig(**{**TINY_KW, "model_kind": "plain-cnn"})
    assert plain.kpn_config().model_kind == "plain-cnn"


def test_train_loss_trend_decreases():
    cfg = TrainConfig(model_kind="plain-cnn", loss_kind="l1", steps=50,
                      val_interval=0, **TINY_KW)
    _, curve = train(cfg, small_corpus())
    losses = [row[1] for row in curve]
    assert len(losses) == 50
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_zero_steps_returns_init():
    cfg = TrainConfig(steps=0, **TINY_KW)
    ckpt, curve = train(cfg, small_corpus())
    assert curve == [] and ckpt.step == 0
    from structkpn.kpn import build_model
    init = build_model(cfg.kpn_config(), cfg.seed)
    assert all(np.array_equal(ckpt.params[k], init[k]) for k in init)


def test_train_validation_rows():
    cfg = TrainConfig(steps=7, val_interval=3, loss_kind="l1", **TINY_KW)
    _, curve = train(cfg, small_corpus())
    with_val = [r[0] for r in curve if r[2] is not None]
    assert with_val == [3, 6, 7]    # interval hits plus the final step
    for r in curve:
        assert (r[2] is None) == (r[3] is None)


def test_train_rejects_small_images():
    cfg = TrainConfig(**TINY_KW)
    with pytest.raises(ValueError):
        train(cfg, [np.zeros((16, 16))])
    with pytest.raises(ValueError):
        train(cfg, [])


@pytest.mark.parametrize("softmax,k", [(True, 5), (False, 9)])
def test_train_sweep_keeps_no_interior_grads(softmax, k):
    # the train memory guard: no conv keeps a padded copy of its input, the
    # tape keeps only what each backward reads, and the sweep drops each
    # interior grad once it is passed on. These configs peak at about 2.4 MB
    # (softmax, k = 5) and 2.7 MB (plain, k = 9) of traced allocations; 3.2
    # and 2.9 MB while each step's tape lived through the next forward, and
    # 5.1 MB when the interior grads lived as long as the graph
    cfg = TrainConfig(steps=2, val_interval=0, kernel_size=k, stem_channels=16,
                      num_res_blocks=2, patch_size=24, batch_size=2,
                      softmax_kernels=softmax, seed=3)
    imgs = small_corpus()
    peak = traced(train, cfg, imgs).peak
    assert peak < 4.2 * 2**20


@pytest.mark.parametrize("softmax,k", [(True, 5), (False, 9)])
def test_train_keeps_one_tape(softmax, k):
    # each step's tape dies during its own sweep and the arena lends the next
    # step the freed buffers, so three steps peak about 1.13-1.16x as high
    # as one (traced); when step k's tape lived through step k+1's forward
    # this read 1.40-1.45x
    imgs = small_corpus()
    peaks = []
    for steps in (1, 3):
        cfg = TrainConfig(steps=steps, val_interval=0, kernel_size=k, stem_channels=16,
                          num_res_blocks=2, patch_size=24, batch_size=2,
                          softmax_kernels=softmax, seed=3)
        peaks.append(traced(train, cfg, imgs).peak)
    assert peaks[1] < 1.25 * peaks[0]


def test_softmax_train_peaks_as_low_as_plain():
    # k = 21 over 2 patches of 48^2: each patch is a micro-batch, its field
    # 8 MB; the softmax normalises the field in place and its gradient
    # overwrites it, so a softmax train holds no more than a plain one
    # (traced: 1.00x here, 3.4x when softmax_vec ran on the whole field)
    imgs = small_corpus()
    peaks = {}
    for softmax in (False, True):
        cfg = TrainConfig(steps=3, val_interval=0, kernel_size=21, stem_channels=8,
                          num_res_blocks=1, patch_size=48, batch_size=2,
                          softmax_kernels=softmax, seed=3)
        peaks[softmax] = traced(train, cfg, imgs).peak
    assert peaks[True] < 1.15 * peaks[False], peaks


@pytest.mark.parametrize("softmax", [True, False])
def test_train_arena_poisoned_with_nan_keeps_every_byte(tmp_path, monkeypatch, softmax):
    # every lent buffer goes out full of NaN: a buffer lent while something
    # still reads it, or an op that reads a lent buffer before writing it,
    # would change the bytes against the same train with no arena at all
    cfg = TrainConfig(steps=3, val_interval=2, **{**TINY_KW, "softmax_kernels": softmax})
    imgs = small_corpus()
    lend = tensor.StepArena.lend
    lends = []

    def poisoned(self, shape):
        out = lend(self, shape)
        out.fill(np.nan)
        lends.append(len(self._bufs))
        return out

    def files(tag):
        ckpt, curve = train(cfg, imgs)
        return (save_checkpoint(tmp_path / f"{tag}.ckpt", ckpt).read_bytes(),
                write_curve_csv(tmp_path / f"{tag}.csv", curve).read_bytes())

    with monkeypatch.context() as mp:
        mp.setattr(tensor.StepArena, "lend", lambda self, shape: np.empty(shape))
        off = files("off")
    with monkeypatch.context() as mp:
        mp.setattr(tensor.StepArena, "lend", poisoned)
        on = files("poisoned")
    assert len(lends) > 3 * max(lends)           # most lends reuse a buffer
    assert on == off


def test_train_divergence_names_step():
    cfg = TrainConfig(loss_kind="l2", steps=10, val_interval=0,
                      **{**TINY_KW, "lr": 1e80, "softmax_kernels": False})
    with pytest.raises(TrainingDiverged) as exc:
        with np.errstate(all="ignore"):
            train(cfg, small_corpus())
    assert exc.value.step == 2
    assert exc.value.param is None
    assert "step 2" in str(exc.value)
    assert tensor._arena is None                 # the raise left no arena lending


def test_train_divergence_names_first_nonfinite_gradient(monkeypatch):
    # non-finite gradients injected at step 2 into two parameters: the first
    # in sorted order is named, and Adam never runs on them
    cfg = TrainConfig(steps=4, val_interval=0, **TINY_KW)
    sweep, updates = training.backward, []

    def injecting(loss, params):
        grads = sweep(loss, params)
        if len(updates) == 1:
            for t in params:
                if t.name in ("res0.conv1.w", "head.b"):
                    grads[t] = np.full_like(grads[t], np.inf if t.name == "head.b" else np.nan)
        return grads

    update = training._adam_update

    def counting(*args):
        updates.append(1)
        return update(*args)

    monkeypatch.setattr(training, "backward", injecting)
    monkeypatch.setattr(training, "_adam_update", counting)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, small_corpus())
    assert (exc.value.step, exc.value.param) == (2, "head.b")
    assert "'head.b'" in str(exc.value) and "step 2" in str(exc.value)
    assert math.isfinite(exc.value.value)
    assert len(updates) == 1
    assert tensor._arena is None


def _max_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("per", [1, 2])
def test_micro_batches_match_the_whole_batch(tmp_path, monkeypatch, per):
    # a batch of 3 split into parts of `per` images: the loss is a mean of
    # per-image terms, so the scaled parts sum to the whole-batch loss and
    # gradients up to rounding; the split run is itself bit-reproducible,
    # with every lent buffer full of NaN (so no part reads what another left
    # in the arena) and across a resume
    imgs = small_corpus()
    cfg = TrainConfig(steps=3, val_interval=0, **{**TINY_KW, "batch_size": 3})
    whole, curve_whole = train(cfg, imgs)
    monkeypatch.setattr(training, "_micro_batch_images", lambda c: per)

    def files(tag, ckpt, curve):
        return (save_checkpoint(tmp_path / f"{tag}.ckpt", ckpt).read_bytes(),
                write_curve_csv(tmp_path / f"{tag}.csv", curve).read_bytes())

    lend = tensor.StepArena.lend

    def poisoned(self, shape):
        out = lend(self, shape)
        out.fill(np.nan)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(tensor.StepArena, "lend", poisoned)
        split, curve_split = train(cfg, imgs)
    assert len(curve_split) == len(curve_whole) == 3
    for (s, loss, *_), (s_w, loss_w, *_) in zip(curve_split, curve_whole):
        assert s == s_w and abs(loss - loss_w) <= 1e-12 * abs(loss_w)
    for name in whole.params:
        assert _max_rel(split.params[name], whole.params[name]) <= 1e-12, name
    assert files("a", split, curve_split) == files("b", *train(cfg, imgs))
    leg, curve_leg = train(dataclasses.replace(cfg, steps=1), imgs)
    resumed, curve_resumed = train(cfg, imgs, start=leg)
    assert files("r", resumed, curve_leg + curve_resumed) == files("a", split, curve_split)


def test_nonfinite_loss_in_a_later_micro_batch_stops_the_step(monkeypatch):
    # step 2's third one-image part goes NaN: the step raises before that
    # part's sweep, with the loss summed so far, and Adam never runs on it
    cfg = TrainConfig(steps=4, val_interval=0, **{**TINY_KW, "batch_size": 3})
    monkeypatch.setattr(training, "_micro_batch_images", lambda c: 1)
    loss_fn, sweep, update = training.LOSSES["struct"], training.backward, training._adam_update
    parts, sweeps, updates = [], [], []

    def poisoned(*args):
        parts.append(1)
        loss = loss_fn(*args)
        return tensor.mul(loss, math.nan) if len(parts) == 6 else loss

    def counting_sweep(loss, params):
        sweeps.append(1)
        return sweep(loss, params)

    def counting_update(*args):
        updates.append(1)
        return update(*args)

    monkeypatch.setitem(training.LOSSES, "struct", poisoned)
    monkeypatch.setattr(training, "backward", counting_sweep)
    monkeypatch.setattr(training, "_adam_update", counting_update)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, small_corpus())
    assert (exc.value.step, exc.value.param) == (2, None)
    assert math.isnan(exc.value.value)
    assert (len(parts), len(sweeps), len(updates)) == (6, 5, 1)
    assert tensor._arena is None


def test_train_step_holds_one_micro_batch_tape():
    cases = [
        # 64 channels over a 64^2 patch is a whole conv block per image: a
        # batch of 4 peaks 1.12x as high as a batch of 1 (traced); 3.54x when
        # the step held the whole batch's tape
        (3, 64, 64),
        # at k = 21 one 48^2 patch's field fills the field budget, while its
        # 8-channel activation would let 14 images share a micro-batch: 1.07x,
        # and 3.94x without the field term
        (21, 8, 48),
    ]
    imgs = small_corpus()
    for kernel, channels, patch in cases:
        peaks = []
        for batch in (1, 4):
            cfg = TrainConfig(steps=1, val_interval=0, kernel_size=kernel,
                              stem_channels=channels, num_res_blocks=1, patch_size=patch,
                              batch_size=batch, seed=3)
            peaks.append(traced(train, cfg, imgs).peak)
        assert training._micro_batch_images(cfg) == 1, cfg
        assert peaks[1] < 1.6 * peaks[0], (cfg, peaks)


def test_acceptance_and_test_configs_train_as_one_batch():
    # every train in the test suite, acceptance SMOKE and perfbench's
    # train-smoke were recorded with whole-batch steps: a budget that split
    # any of them would move their bytes and digests silently. A new test
    # train with wider or larger patches belongs on this list
    from test_acceptance import SMOKE
    spec = importlib.util.spec_from_file_location(
        "perfbench_spec", Path(__file__).resolve().parents[1] / "perfbench" / "spec.py")
    perfbench_spec = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_spec)
    configs = [
        TrainConfig(**SMOKE),                                              # acceptance 6, 7
        TrainConfig(**{**SMOKE, "patch_size": 32, "stem_channels": 8,     # acceptance 9
                       "num_res_blocks": 1}),
        TrainConfig(**perfbench_spec.SMOKE),
        TrainConfig(**TINY_KW),
        TrainConfig(stem_channels=16, patch_size=24, batch_size=2, kernel_size=9),
        TrainConfig(stem_channels=2, patch_size=16, batch_size=1, kernel_size=3),
        TrainConfig(stem_channels=16, patch_size=48, batch_size=4, kernel_size=5),
        # the CLI, metrics and acceptance-9 CLI trains
        TrainConfig(stem_channels=8, patch_size=32, batch_size=2, kernel_size=5, k_r=7),
    ]
    for cfg in configs:
        assert training._micro_batch_images(cfg) >= cfg.batch_size, cfg


def test_checkpoint_roundtrip_is_byte_identical(tmp_path):
    cfg = TrainConfig(steps=4, val_interval=0, **TINY_KW)
    ckpt, _ = train(cfg, small_corpus())
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.config == cfg
    assert loaded.step == 4
    assert set(loaded.params) == set(ckpt.params)
    assert all(np.array_equal(loaded.params[k], ckpt.params[k]) for k in ckpt.params)
    assert all(np.array_equal(loaded.adam_m[k], ckpt.adam_m[k]) for k in ckpt.params)
    assert loaded.rng_state == ckpt.rng_state


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    old = tmp_path / "v1.ckpt"      # the format that still stored the fixed constants
    old.write_bytes(b"SKPN" + struct.pack("<I", 1) + b"\x00" * 16)
    with pytest.raises(ValueError, match="v1.ckpt: unsupported checkpoint version 1"):
        load_checkpoint(old)


def tiny_checkpoint_bytes(tmp_path):
    cfg = TrainConfig(steps=1, val_interval=0, kernel_size=3, stem_channels=2,
                      num_res_blocks=1, groups=1, patch_size=16, batch_size=1, seed=3)
    ckpt, _ = train(cfg, small_corpus(n=2, size=32))
    return save_checkpoint(tmp_path / "full.ckpt", ckpt).read_bytes()


def load_both_ways(path):
    """(full read, moments-free read) of a checkpoint: each a Checkpoint or the
    ValueError it raised. Both must fail together with one message naming the
    file, and where both load they must agree on config, step and params to
    the byte."""
    reads = []
    for optimizer in (True, False):
        try:
            reads.append(load_checkpoint(path, optimizer=optimizer))
        except ValueError as e:
            assert path.name in str(e), (optimizer, e)
            reads.append(e)
    full, lean = reads
    assert isinstance(full, ValueError) == isinstance(lean, ValueError), (full, lean)
    if isinstance(full, ValueError):
        assert str(full) == str(lean)
    else:
        assert lean.adam_m is None and lean.adam_v is None
        assert (lean.config, lean.step, lean.rng_state) == (full.config, full.step,
                                                             full.rng_state)
        assert lean.params.keys() == full.params.keys()
        assert all(lean.params[k].tobytes() == full.params[k].tobytes() for k in full.params)
    return full, lean


def test_checkpoint_every_truncation_raises_value_error(tmp_path):
    full = tiny_checkpoint_bytes(tmp_path)
    cut_path = tmp_path / "cut.ckpt"
    for cut in range(len(full)):
        cut_path.write_bytes(full[:cut])
        with pytest.raises(ValueError, match="cut.ckpt"):
            load_checkpoint(cut_path)
        assert all(isinstance(r, ValueError) for r in load_both_ways(cut_path)), cut
    cut_path.write_bytes(full)
    assert save_checkpoint(tmp_path / "again.ckpt", load_checkpoint(cut_path)).read_bytes() == full
    load_both_ways(cut_path)


def test_checkpoint_byte_flips_load_or_name_the_file(tmp_path):
    full = tiny_checkpoint_bytes(tmp_path)
    flip_path = tmp_path / "flip.ckpt"
    for i in range(len(full)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(full)
            flipped[i] ^= mask
            flip_path.write_bytes(flipped)
            load_both_ways(flip_path)


def test_checkpoint_without_moments_cannot_be_saved(tmp_path):
    path = tmp_path / "full.ckpt"
    path.write_bytes(tiny_checkpoint_bytes(tmp_path))
    lean = load_checkpoint(path, optimizer=False)
    out = tmp_path / "lean.ckpt"
    with pytest.raises(ValueError, match=r"no Adam moments \(adam\.m\.\*, adam\.v\.\*\)"):
        save_checkpoint(out, lean)
    assert not out.exists()
    half = dataclasses.replace(load_checkpoint(path), adam_v=None)
    with pytest.raises(ValueError, match="no Adam moments"):
        save_checkpoint(out, half)
    assert not out.exists()


def test_checkpoint_without_moments_cannot_be_resumed(tmp_path):
    path = tmp_path / "full.ckpt"
    path.write_bytes(tiny_checkpoint_bytes(tmp_path))
    lean = load_checkpoint(path, optimizer=False)
    with pytest.raises(ValueError, match=r"train: .*no Adam moments"):
        train(dataclasses.replace(lean.config, steps=2), small_corpus(n=2, size=32), start=lean)


def test_checkpoint_arrays_must_match_config_shapes(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(tiny_checkpoint_bytes(tmp_path))
    good = load_checkpoint(path)
    m = good.adam_m["stem.w"]            # (2, 1, 3, 3): same element count, dims permuted
    permuted = {**good.adam_m, "stem.w": np.ascontiguousarray(m.transpose(1, 0, 2, 3))}
    cases = [
        (dataclasses.replace(good, config=dataclasses.replace(good.config, num_res_blocks=0)),
         r"bad\.ckpt: param\.\* .*unexpected \['res0\.conv1\.b'"),
        (dataclasses.replace(good, config=dataclasses.replace(good.config, stem_channels=3)),
         r"bad\.ckpt: param\.\* .*stem\.w has shape \(2, 1, 3, 3\), expected \(3, 1, 3, 3\)"),
        (dataclasses.replace(good, adam_m=permuted),
         r"bad\.ckpt: adam\.m\.\* .*stem\.w has shape \(1, 2, 3, 3\), expected \(2, 1, 3, 3\)"),
    ]
    for bad, message in cases:
        save_checkpoint(path, bad)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)


def test_a_model_only_load_denoises_with_no_second_copy_of_the_weights(tmp_path):
    # the load keeps each 3x3 weight tap-major, so every conv hands BLAS a view
    # of it, and each conv's GEMMs write straight into the next conv's padded
    # input: a 256^2 image at the default config traces 7.6 MiB (13.2 MiB with
    # copied weights, a padded copy of each band and a block accumulator;
    # 10.6 MiB with the weights' copies gone alone)
    ckpt = load_checkpoint(default_checkpoint(tmp_path / "m.ckpt")[0], optimizer=False)
    cfg = ckpt.config.kpn_config()
    for name, (shape, groups) in expected_param_shapes(cfg).items():
        if shape[2:] == (3, 3):
            w = ckpt.params[name]
            assert np.shares_memory(tensor._conv_taps(w, groups, 258)[0], w), name
    img = np.random.default_rng(57).random((256, 256))
    with one_blas_thread():
        peak = traced(denoise_image, ckpt.params, cfg, img).peak
    assert peak <= 10 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("h, w, strip", [(19, 37, None), (12, 40, 16)],
                         ids=["odd-width", "strips"])
def test_model_only_weights_denoise_to_the_bytes_of_c_ordered_ones(tmp_path, monkeypatch, h, w,
                                                                   strip):
    # the tap-major weights of a model-only load feed the GEMMs the same values
    # in the same shapes as the C-ordered arrays that were saved; a full load,
    # for resume and the tape's Tensor, keeps C order, so neither copies
    path, saved = default_checkpoint(tmp_path / "m.ckpt")
    full, lean = load_checkpoint(path), load_checkpoint(path, optimizer=False)
    assert all(a.flags["C_CONTIGUOUS"] for a in full.params.values())
    assert not lean.params["res0.conv1.w"].flags["C_CONTIGUOUS"]
    if strip:
        monkeypatch.setattr(kpn, "_STRIP_COLUMNS", strip)
    cfg = full.config.kpn_config()
    img = np.random.default_rng(58).random((h, w))
    pixels = [(0, 0), (h // 2, strip or w // 2), (h // 2, (strip or 1) - 1), (h - 1, w - 1)]
    with one_blas_thread():
        den, kernels = denoise_image(lean.params, cfg, img, pixels)
        want, want_kernels = denoise_image(saved, cfg, img, pixels)
    assert den.tobytes() == want.tobytes()
    assert kernels.tobytes() == want_kernels.tobytes()


def test_train_is_deterministic_across_blas_thread_counts(tmp_path):
    # bytes are promised at one BLAS thread count; across counts, GEMM sums may
    # split differently, so parameters are compared within a tolerance
    synth_corpus(tmp_path / "data", 5, 64, 7)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 3\nval_interval = 0\nkernel_size = 5\nstem_channels = 16\n"
                   "num_res_blocks = 2\npatch_size = 48\nbatch_size = 4\n"
                   "softmax_kernels = true\nseed = 5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(threads, name):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": pythonpath}
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "structkpn.cli", "train", "--config", str(cfg),
                        "--data", str(tmp_path / "data"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        return out

    one_a, one_b, two = run(1, "a.ckpt"), run(1, "b.ckpt"), run(2, "c.ckpt")
    assert one_a.read_bytes() == one_b.read_bytes()
    pa, pc = load_checkpoint(one_a).params, load_checkpoint(two).params
    assert set(pa) == set(pc)
    for name in pa:
        np.testing.assert_allclose(pc[name], pa[name], rtol=0, atol=1e-12, err_msg=name)


def test_resume_matches_uninterrupted_run(tmp_path):
    # a 0-step first leg is the fresh run's own starting point
    imgs = small_corpus()
    cfg16 = TrainConfig(steps=16, val_interval=0, loss_kind="struct", **TINY_KW)
    full, curve_full = train(cfg16, imgs)
    for first in (0, 8):
        leg, curve_a = train(dataclasses.replace(cfg16, steps=first), imgs)
        path = save_checkpoint(tmp_path / f"leg{first}.ckpt", leg)
        resumed, curve_b = train(cfg16, imgs, start=load_checkpoint(path))

        assert all(np.array_equal(full.params[k], resumed.params[k]) for k in full.params)
        assert all(np.array_equal(full.adam_m[k], resumed.adam_m[k]) for k in full.params)
        assert all(np.array_equal(full.adam_v[k], resumed.adam_v[k]) for k in full.params)
        assert full.rng_state == resumed.rng_state
        assert resumed.step == full.step == 16
        assert curve_full[:first] == curve_a
        assert curve_full[first:] == curve_b


def test_resume_keeps_original_config(tmp_path):
    imgs = small_corpus()
    cfg = TrainConfig(steps=2, val_interval=0, **TINY_KW)
    ckpt, _ = train(cfg, imgs)
    other = dataclasses.replace(cfg, steps=4, lr=123.0)   # lr must be ignored
    before = [a.copy() for group in (ckpt.params, ckpt.adam_m, ckpt.adam_v)
              for a in group.values()]
    out, _ = train(other, imgs, start=ckpt)
    after = [a for group in (ckpt.params, ckpt.adam_m, ckpt.adam_v) for a in group.values()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))   # Adam ran on copies
    assert out.config.lr == cfg.lr
    assert out.config.steps == 4
    assert out.step == 4


def test_curve_csv_format(tmp_path):
    rows = [(1, 0.5, None, None), (2, 0.25, 30.0, 0.9)]
    path = write_curve_csv(tmp_path / "c.csv", rows)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_HEADER == "step,loss,val_psnr,val_ssim"
    assert lines[1] == "1,0.5,,"
    assert lines[2] == "2,0.25,30.0,0.9"
