"""Every name a package module imports at module level is used in that
module, except the bindings that only the benchmark's tracer reads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
tracing = importlib.import_module("tracing")

# imported only so that perfbench/tracing.py can wrap them there; nothing
# in the module calls them
TRACER_ONLY = {
    "harness": {"d_separated", "fisher_z_from_corr", "q_anm_polytree"},
    "learners": {"d_separated", "fisher_z_from_corr"},
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_module_level_import_is_used():
    unused = {path.stem: _unused_imports(path) for path in (ROOT / "src" / "causalpred").glob("*.py")}
    assert {module: names for module, names in unused.items() if names} == TRACER_ONLY


def test_no_package_module_has_a_global_statement():
    # state shared between calls lives in an object its caller holds, such
    # as stattests.anm_session's, not in a module
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "causalpred").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_each_tracer_only_import_is_a_trace_target():
    modules = {name: importlib.import_module(f"causalpred.{name}") for name in tracing.MODULES}
    wrapped = {(module.__name__, attr) for module, attr, _, _ in tracing.targets(modules)}
    missing = [
        f"{module}.{name}"
        for module, names in TRACER_ONLY.items()
        for name in names
        if (f"causalpred.{module}", name) not in wrapped
    ]
    assert not missing


def test_the_package_loads_no_scipy_spatial():
    # a fresh interpreter, since the tests' own oracles import pdist
    code = (
        "import sys; import causalpred.cli, causalpred.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
