import csv

import numpy as np
import pytest

from causalpred import harness
from causalpred.core import Dataset, Query, binary
from causalpred.errors import InvalidParams
from causalpred.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    RiskRecord,
    expected_risk,
    run_anm_experiment,
    run_ci_experiment,
    run_experiment,
    summarize,
    write_records,
)
from causalpred.stattests import TestOutcome


# --- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParams):
        ExperimentConfig("bogus")
    with pytest.raises(InvalidParams):
        ExperimentConfig("ci", repetitions=0)
    with pytest.raises(InvalidParams):
        ExperimentConfig("anm", datasets=0)


def test_config_from_json():
    cfg = ExperimentConfig.from_json(
        {"experiment": "anm", "n": 6, "k_values": [5, 10], "repetitions": 2}
    )
    assert cfg.k_values == (5, 10)
    assert cfg.n == 6


def test_experiment_type_mismatch():
    with pytest.raises(InvalidParams):
        run_ci_experiment(ExperimentConfig("anm", k_values=(5,)))
    with pytest.raises(InvalidParams):
        run_anm_experiment(ExperimentConfig("ci"))
    with pytest.raises(InvalidParams):
        run_anm_experiment(ExperimentConfig("anm"))  # no k_values


# --- risk plumbing ------------------------------------------------------------


def _const_tester(value):
    def tester(q):
        return TestOutcome(binary(value), None, None)

    return tester


def test_expected_risk_half_disagreement():
    queries = [Query.ci(0, 1), Query.ci(0, 2)]
    risk = expected_risk(lambda q: int(q == Query.ci(0, 1)), queries, _const_tester(1))
    assert risk == 0.5


def test_expected_risk_perfect_oracle():
    queries = [Query.ci(0, 1), Query.ci(0, 2), Query.ci(1, 2)]
    assert expected_risk(lambda q: 1, queries, _const_tester(1)) == 0.0


def test_expected_risk_random_predictor_on_balanced_labels():
    queries = [Query.ci(0, i) for i in range(1, 101)]
    labels = {q: i % 2 for i, q in enumerate(queries)}

    def tester(q):
        return TestOutcome(binary(labels[q]), None, None)

    risks = []
    for s in range(40):
        rng = np.random.default_rng(s)
        draws = {q: int(rng.random() < 0.5) for q in queries}
        risks.append(expected_risk(lambda q: draws[q], queries, tester))
    assert abs(np.mean(risks) - 0.5) < 0.05


def test_risk_record_gap_bit_exact():
    r = RiskRecord("ci", 5, 100, 0.05, 10, 0, empirical=0.125, expected=0.5, bound_unscaled=1.0, seed=0)
    assert r.gap == abs(0.125 - 0.5)


# --- experiment runs ----------------------------------------------------------


def test_ci_experiment_records():
    cfg = ExperimentConfig("ci", n=6, l=2000, alpha=0.01, repetitions=3, seed=5)
    recs = run_ci_experiment(cfg)
    assert len(recs) == 3
    for r in recs:
        assert 0.0 <= r.empirical <= 1.0
        assert 0.0 <= r.expected <= 1.0
        assert r.k == r.k and r.k > 0
        assert 0.0 <= r.bound_unscaled <= 1.0


def test_ci_experiment_oracle_mode_consistent():
    cfg = ExperimentConfig("ci", n=6, repetitions=3, seed=2, oracle=True)
    recs = run_ci_experiment(cfg)
    # with exact d-separation answers, PC's training risk vanishes
    for r in recs:
        assert r.empirical == 0.0


def test_ci_experiment_deterministic():
    cfg = ExperimentConfig("ci", n=5, l=1000, repetitions=2, seed=9)
    a = run_ci_experiment(cfg)
    b = run_ci_experiment(cfg)
    assert [(r.empirical, r.expected, r.k) for r in a] == [
        (r.empirical, r.expected, r.k) for r in b
    ]


def test_anm_experiment_full_universe_gap_zero():
    cfg = ExperimentConfig(
        "anm", n=4, l=120, alpha=0.05, repetitions=2, seed=3, k_values=(12,), datasets=1
    )
    recs = run_anm_experiment(cfg)
    assert len(recs) == 2
    for r in recs:
        assert r.k == 12
        assert r.gap == 0.0  # k covers all ordered pairs


def test_anm_experiment_calls_module_anm_test_once_per_pair(monkeypatch):
    # the benchmark taps harness.anm_test and reads the dataset and the query
    # from the positional arguments of each call
    calls = []
    original = harness.anm_test

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "anm_test", counting)
    cfg = ExperimentConfig("anm", n=3, l=60, alpha=0.05, repetitions=1, k_values=(6,), datasets=1)
    run_anm_experiment(cfg)
    assert len(calls) == 3 * 2
    for args, kwargs in calls:
        assert kwargs == {}
        data, q, alpha = args
        assert isinstance(data, Dataset) and isinstance(q, Query) and alpha == cfg.alpha
    assert sorted(q.members for (_, q, _), _ in calls) == [
        (a, b) for a in range(3) for b in range(3) if a != b
    ]


def test_run_experiment_dispatch():
    cfg = ExperimentConfig("ci", n=5, l=1000, repetitions=1, seed=1)
    assert run_experiment(cfg)[0].experiment == "ci"


# --- output -------------------------------------------------------------------


def test_write_records_and_summarize(tmp_path):
    recs = [
        RiskRecord("ci", 5, 100, 0.05, 10, i, 0.1 * i, 0.2, 1.0, i) for i in range(3)
    ]
    path = tmp_path / "out.csv"
    write_records(recs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    s = summarize(recs)
    gaps = [abs(0.1 * i - 0.2) for i in range(3)]
    assert s[10]["mean_gap"] == pytest.approx(np.mean(gaps))
    assert s[10]["count"] == 3
