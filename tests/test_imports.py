"""Every name a package module imports at module level is used in that
module, except the bindings that only the benchmark's tracer reads; scipy
is imported only inside functions, and loaded only by the commands that
compute a kernel statistic."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
tracing = importlib.import_module("tracing")

# imported only so that perfbench/tracing.py can wrap them there; nothing
# in the module calls them
TRACER_ONLY = {
    "harness": {"d_separated", "fisher_z_from_corr", "pc_fit", "pc_oracle", "q_anm_polytree"},
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


# every scipy name the package imports; each is imported inside the one
# function that calls it, so that a process loads scipy only when it
# computes a kernel statistic
SCIPY_NAMES = {"gammaincc", "cho_factor", "cho_solve", "dger"}


def _scipy_names(node):
    """The names an import statement takes from scipy, or []."""
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
    return []


def _run_on_import(node):
    """The nodes under ``node`` that run when its module is imported: all
    but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_on_import(child)


def test_scipy_is_imported_inside_functions_each_name_at_one_site():
    module_level, sites = [], {}
    for path in sorted((ROOT / "src" / "causalpred").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_level += [f"{path.stem}:{node.lineno}" for node in _run_on_import(tree) if _scipy_names(node)]
        for node in ast.walk(tree):
            for name in _scipy_names(node):
                sites.setdefault(name, []).append(f"{path.stem}:{node.lineno}")
    assert module_level == []
    assert {name: len(where) for name, where in sites.items()} == dict.fromkeys(SCIPY_NAMES, 1), sites


# One fresh interpreter per case, since the tests' own oracles import
# scipy.stats: it imports the CLI and the harness, runs one command through
# cli.main in a directory holding LOAD_INPUTS, and reports the public scipy
# subpackages then loaded.  An empty set also means no scipy module at all.
LOAD_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
import causalpred.cli, causalpred.harness
rc = 0
if len(sys.argv) > 1:
    with redirect_stdout(io.StringIO()):
        rc = causalpred.cli.main(sys.argv[1:])
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
packages = sorted(
    m for m in scipy
    if m.count(".") == 1 and not m.split(".")[1].startswith("_") and hasattr(sys.modules[m], "__path__")
)
print(json.dumps({"rc": rc, "any_scipy": bool(scipy), "packages": packages}))
"""
CI_CONFIG = {"experiment": "ci", "n": 4, "l": 100, "repetitions": 1}
LOAD_INPUTS = {
    "ci.json": CI_CONFIG,
    "oracle.json": {**CI_CONFIG, "oracle": True},
    "anm.json": {"experiment": "anm", "n": 3, "l": 40, "repetitions": 1, "datasets": 1, "k_values": [2]},
}
KERNEL = ["scipy.linalg", "scipy.special"]


@pytest.fixture(scope="module")
def load_dir(tmp_path_factory):
    """d.csv from gen linear on 4 nodes, its truth.json (a DAG model
    file), path.json from fit path on d.csv, and the experiment configs."""
    here = tmp_path_factory.mktemp("scipy-loads")
    gen = ["gen", "linear", "--n", "4", "--samples", "60", "--seed", "1", "--out", "d.csv", "--truth", "truth.json"]
    for argv in (gen, ["fit", "path", "--data", "d.csv", "--out", "path.json"]):
        assert _load_child(here, argv)["rc"] == 0
    for name, config in LOAD_INPUTS.items():
        (here / name).write_text(json.dumps(config), encoding="utf-8")
    return here


def _load_child(here, argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, "-c", LOAD_CHILD, *argv]
    return json.loads(subprocess.run(args, cwd=here, env=env, capture_output=True, text=True, check=True).stdout)


@pytest.mark.parametrize(
    "argv, packages",
    [
        pytest.param([], [], id="import only"),
        pytest.param(["gen", "linear", "--n", "4", "--samples", "60", "--out", "g.csv"], [], id="gen"),
        pytest.param(["plan", "--class", "polytrees", "--n", "20"], [], id="plan"),
        pytest.param(["bound", "--class", "alldags", "--n", "5", "--k", "100"], [], id="bound"),
        pytest.param(["predict", "--model", "path.json", "--query", "ci:0,2|1"], [], id="predict ci on a path model"),
        pytest.param(["predict", "--model", "truth.json", "--query", "ci:0,2|1"], [], id="predict ci on a DAG model"),
        pytest.param(["fit", "path", "--data", "d.csv", "--out", "p.json"], [], id="fit path"),
        pytest.param(["test", "--data", "d.csv", "--query", "corr:0,1"], [], id="test corr"),
        pytest.param(["experiment", "--config", "oracle.json", "--out", "r0.csv"], [], id="experiment ci oracle"),
        pytest.param(["test", "--data", "d.csv", "--query", "ci:0,1|2"], [], id="test ci"),
        pytest.param(["fit", "pc", "--data", "d.csv", "--out", "pc.json"], [], id="fit pc"),
        pytest.param(["experiment", "--config", "ci.json", "--out", "r1.csv"], [], id="experiment ci"),
        pytest.param(["test", "--data", "d.csv", "--query", "anm:0->1"], KERNEL, id="test anm"),
        pytest.param(["fit", "polytree", "--data", "d.csv", "--k", "3", "--out", "t.json"], KERNEL, id="fit polytree"),
        pytest.param(["experiment", "--config", "anm.json", "--out", "r2.csv"], KERNEL, id="experiment anm"),
    ],
)
def test_scipy_loads_only_where_a_statistic_needs_it(load_dir, argv, packages):
    assert _load_child(load_dir, argv) == {"rc": 0, "any_scipy": bool(packages), "packages": packages}
