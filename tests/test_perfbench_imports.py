"""The benchmark under perfbench/ imports library names; each must still exist.

perfbench's own tests are outside this suite, so a removed public name would
otherwise break the benchmark with every test here still passing.
"""

import ast
import importlib
from pathlib import Path

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
