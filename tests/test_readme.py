"""The README states the package's limits and constants by value; each
stated value must be the module's."""

import re
from pathlib import Path

from causalpred import core, harness, learners, models, stattests, synthgen

README = Path(__file__).resolve().parent.parent / "README.md"

CONSTANTS = {
    "BLOCK_ROWS": core,
    "MAX_ANM_ROWS": stattests,
    "MAX_CI_NODES": harness,
    "MAX_DAG_NODES": models,
    "MAX_PC_NODES": learners,
    "MAX_SAMPLE_CELLS": synthgen,
    "MAX_SCM_NODES": synthgen,
    "PATH_ARGMAX_CELLS": learners,
    "NOISE_WIDTH": synthgen,
}

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
