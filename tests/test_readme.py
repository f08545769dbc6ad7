"""The README states the package's limits and constants by value; each
stated value must be the module's, and every public numeric constant of
the package is either stated or a constant of its models."""

import ast
import re
from pathlib import Path

import causalpred
from causalpred import core, harness, learners, models, stattests, synthgen

README = Path(__file__).resolve().parent.parent / "README.md"

CONSTANTS = {
    "BLOCK_ROWS": core,
    "EVERY_MOVE_WORDS": models,
    "FRONTIER_SHARE": models,
    "MAX_ANM_ROWS": stattests,
    "MAX_CI_NODES": harness,
    "MAX_DAG_NODES": models,
    "MAX_PC_NODES": learners,
    "MAX_SAMPLE_CELLS": synthgen,
    "MAX_SCM_NODES": synthgen,
    "NOISE_WIDTH": synthgen,
}

# constants of the models themselves, which no limit or cost sets
MODEL_CONSTANTS = {"VAR_EPS", "RIDGE_SCALE", "HIDDEN_UNITS", "PATH_CORR_CONSTANT"}

# "`NAME` = 10,000", "`module.NAME` = 10⁷" or "`NAME` = 1.0"
STATED = re.compile(r"`(?:\w+\.)?(\w+)` = (\d{1,3}(?:,\d{3})+|\d+(?:\.\d+)?)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)")
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def stated_values(text):
    """(name, value) for each "`NAME` = value" in the text."""
    out = []
    for name, digits, power in STATED.findall(text):
        value = float(digits.replace(",", "")) if "." in digits else int(digits.replace(",", ""))
        if power:
            value **= int(power.translate(SUPERSCRIPTS))
        out.append((name, value))
    return out


def test_stated_values_parse_the_readme_spellings():
    text = "`A` = 10,000 nodes, `m.B` = 10⁷ cells, `C` = 1.0, and `D` = 4096."
    assert stated_values(text) == [("A", 10_000), ("B", 10**7), ("C", 1.0), ("D", 4096)]


def test_readme_states_each_constant_as_its_module_holds_it():
    stated = [(name, v) for name, v in stated_values(README.read_text(encoding="utf-8")) if name in CONSTANTS]
    assert {name for name, _ in stated} == set(CONSTANTS)
    for name, value in stated:
        held = getattr(CONSTANTS[name], name)
        assert value == held, f"README says {name} = {value}, the module {held}"


def _numeric(node):
    """Whether an expression is built of number literals and operators."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    return isinstance(node, ast.BinOp) and _numeric(node.left) and _numeric(node.right)


def public_numeric_constants(package_dir):
    """(module, name) of each module-level public name a numeric literal
    expression sets, such as `X = 1 << 10`, in the package's modules."""
    found = set()
    for path in sorted(Path(package_dir).glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _numeric(value):
                found |= {(path.stem, t.id) for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")}
    return found


def test_public_numeric_constants_are_found_by_their_assignments(tmp_path):
    (tmp_path / "m.py").write_text(
        "A = 1 << 10\nB: float = -1e-3\nC = 10**7\n_D = 4\nE = 'x'\nF = len('ab')\nG = True\n"
        "def f():\n    H = 5\n",
        encoding="utf-8",
    )
    assert public_numeric_constants(tmp_path) == {("m", "A"), ("m", "B"), ("m", "C")}


def test_every_public_numeric_constant_is_stated_or_a_model_constant():
    found = public_numeric_constants(Path(causalpred.__file__).parent)
    assert not set(CONSTANTS) & MODEL_CONSTANTS
    assert {name for _, name in found} == set(CONSTANTS) | MODEL_CONSTANTS
    for module, name in found:
        if name in CONSTANTS:
            assert CONSTANTS[name].__name__ == f"causalpred.{module}", f"{name} is {module}'s"
