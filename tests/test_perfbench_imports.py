"""The benchmark under perfbench/ imports library names; each must still exist.

perfbench's own tests are outside this suite, so a removed public name would
otherwise break the benchmark with every test here still passing. Its traced
replay also uses the tape beyond imports: it swaps an op output's
``_backward_fn`` for a timed wrapper, and reads the ``.grad`` of conv outputs
and of the denoised batch after the sweep, and it reads ``TrainConfig``
attributes, fixed class constants among them. Those are checked here too.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from structkpn.corpus import synth_image
from structkpn.gradstats import stats_map
from structkpn.kpn import KpnConfig, build_model, kpn_apply, local_conv, params_to_tensors
from structkpn.losses import loss_weights, struct_loss
from structkpn.tensor import Tensor, backward, conv2d, mul, reduce_sum, relu
from structkpn.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def structkpn_imports():
    """(module, name, file) for every ``from structkpn... import name`` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "structkpn"):
                found += [(node.module, a.name, path.name) for a in node.names]
    return found


def test_every_name_perfbench_imports_exists():
    imports = structkpn_imports()
    assert imports, f"no structkpn imports found under {PERFBENCH}"
    missing = []
    for module, name, fname in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{fname}: from {module} import {name}")
    assert not missing, missing


def test_every_config_name_the_replay_reads_exists():
    # tracing.py reads the fixed constants (beta1, sigma_l2, ...) as cfg.<name>;
    # they are class constants, not fields, so no field-based check sees them go
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert {"beta1", "beta2", "eps", "sigma_l2", "sigma_l1", "strength_normalization",
            "k_r", "lr"} <= names
    cfg = TrainConfig()
    assert [n for n in sorted(names) if not hasattr(cfg, n)] == []


def _wrapped_sweep(out, upstream, wrap):
    """The replay's one-op backward: optionally wrap ``out._backward_fn``, then
    sweep ``reduce_sum(out * upstream)``; returns how often the wrapper ran."""
    calls = []
    if wrap:
        fn = out._backward_fn

        def timed(g):
            calls.append(1)
            fn(g)

        out._backward_fn = timed
    backward(reduce_sum(mul(out, Tensor(upstream))))
    return len(calls)


def test_wrapped_backward_fn_runs_once_with_unchanged_parent_grads():
    rng = np.random.default_rng(12)
    xv, wv, bv = (rng.normal(size=(2, 4, 6, 5)), rng.normal(size=(6, 2, 3, 3)),
                  rng.normal(size=6))
    fv = rng.normal(size=(2, 9, 6, 5))
    g_conv, g_local = rng.normal(size=(2, 6, 6, 5)), rng.normal(size=(2, 1, 6, 5))

    def grads(wrap):
        parents = [Tensor(a, requires_grad=True) for a in (xv, wv, bv)]
        ran = _wrapped_sweep(conv2d(*parents, groups=2), g_conv, wrap)
        field = Tensor(fv, requires_grad=True)
        ran += _wrapped_sweep(local_conv(Tensor(xv[:, :1]), field), g_local, wrap)
        return ran, [t.grad.tobytes() for t in (*parents, field)]

    ran, wrapped = grads(True)
    assert ran == 2
    assert wrapped == grads(False)[1]


def test_conv_output_and_yhat_grads_are_kept_after_the_sweep():
    # the replay builds kpn_apply's graph from public calls and keeps every
    # conv output; here a model with no residual blocks: stem, relu, head
    cfg = KpnConfig(kernel_size=5, stem_channels=8, num_res_blocks=0)
    tensors = params_to_tensors(build_model(cfg, 4))
    rng = np.random.default_rng(13)
    clean = np.stack([synth_image(16, rng)[None] for _ in range(2)])
    x = Tensor(clean + 0.1 * rng.normal(size=clean.shape))
    stem = conv2d(x, tensors["stem.w"], tensors["stem.b"])
    v = conv2d(relu(stem), tensors["head.w"], tensors["head.b"])
    yhat = local_conv(x, v)
    assert yhat.data.tobytes() == kpn_apply(tensors, x, cfg).data.tobytes()
    wts = [loss_weights(stats_map(c[0], 5)) for c in clean]
    backward(struct_loss(yhat, clean, wts), list(tensors.values()))
    for t in (stem, v, yhat):
        assert t.grad is not None and t.grad.shape == t.data.shape
