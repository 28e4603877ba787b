"""Workloads, metrics and fixed settings of the structkpn benchmark.

This module is the single source of the benchmark's definition: ``run.py``
reads it to run a workload and ``run.py --write-spec`` renders it into the
repository's ``BENCHMARK.json``.
"""

# One BLAS thread: the autodiff engine is single-threaded by design, and one
# thread keeps timings steady on a small shared machine. Recorded in reports.
BLAS_THREADS = 1
RUN_SECONDS = 20
SETUP_REPEATS = 3        # setup_s is the median of this many set-ups
MIN_TIMED_CALLS = 3      # every run times at least this many CLI calls
CORPUS_SIZE = 96         # side of every training image
CORPUS_COUNT = 10        # training images per corpus (the CLI holds out 2)
CANONICAL_SEED = 0       # seed of the fixed inputs behind the reference checks
HELDOUT_COUNT = 8        # held-out images scored for val_psnr_gain_db
VAL_EVAL_SEED = 17       # noise seed of the held-out evaluation
GEMM_SHAPE = (9216, 576, 64)   # (rows, inner, cols): the default 3x3 conv GEMM

# The acceptance-suite SMOKE configuration (tests/test_acceptance.py).
SMOKE = dict(model_kind="kpn", loss_kind="struct", batch_size=4, patch_size=48,
             lr=1e-3, kernel_size=5, stem_channels=16, num_res_blocks=2,
             groups=2, softmax_kernels=True, k_r=11, noise_kind="gaussian",
             noise_sigma=0.1)

WORKLOADS = {
    "train-default": dict(
        kind="train", config={}, steps_per_call=2, warmup_steps=2,
        why="structkpn train at the default config (64 ch, k=21): 3x3 and 1x1 "
            "conv2d fwd+bwd are ~95% of a step, so conv/GEMM/local_conv "
            "changes show here and window-filter changes do not"),
    "train-smoke": dict(
        kind="train", config=SMOKE, steps_per_call=25, warmup_steps=5,
        why="structkpn train at the acceptance SMOKE config (16 ch, k=5, "
            "softmax): stats_map, struct_loss and tape overhead weigh far more; "
            "it also sets most of the test-suite time"),
    "eval-default": dict(
        kind="eval", sizes=(128, 256), warmup_sizes=(128,),
        why="structkpn eval of a default-architecture checkpoint on 128^2 and "
            "256^2 images: forward only, one large image per call, so forward "
            "throughput and peak memory show"),
}

# (name, unit, better, bound)
END_TO_END = [
    ("mpix_per_s", "MPix/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better). Train workloads report the median over replayed
# steps; eval-default reports the total over its image set. A layer that a
# workload never calls reads 0 there.
PER_LAYER = [
    ("tensor.conv2d.fwd_ms", "ms", "lower"),
    ("tensor.conv2d.bwd_ms", "ms", "lower"),
    ("tensor.conv2d.head_fwd_ms", "ms", "lower"),
    ("tensor.conv2d.head_bwd_ms", "ms", "lower"),
    ("tensor.conv2d.gflops", "GFLOP/s", "higher"),
    ("tensor.conv2d.peak_alloc_mb", "MB", "lower"),
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.elementwise_ms", "ms", "lower"),
    ("kpn.local_conv.fwd_ms", "ms", "lower"),
    ("kpn.local_conv.bwd_ms", "ms", "lower"),
    ("kpn.denoise_image.ms_per_mpix", "ms/MPix", "lower"),
    ("kpn.denoise_image.peak_alloc_mb", "MB", "lower"),
    ("gradstats.stats_map_ms", "ms", "lower"),
    ("losses.loss_weights_ms", "ms", "lower"),
    ("losses.struct_loss.fwd_ms", "ms", "lower"),
    ("losses.struct_loss.bwd_ms", "ms", "lower"),
    ("training.sample_patch_pairs_ms", "ms", "lower"),
    ("training.adam_step_ms", "ms", "lower"),
    ("training.add_noise_ms", "ms", "lower"),
    ("training.load_checkpoint_ms", "ms", "lower"),
    ("training.save_checkpoint_ms", "ms", "lower"),
    ("metrics.psnr_ms", "ms", "lower"),
    ("metrics.ssim_image_ms", "ms", "lower"),
    ("fileio.read_pgm_ms", "ms", "lower"),
    ("corpus.synth_corpus_s", "s", "lower"),
    ("trace.unit_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("machine.gemm_gflops", "GFLOP/s", "higher"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
