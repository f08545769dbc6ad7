import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalpred import harness, learners, models, synthgen
from causalpred.bounds import gap_binary
from causalpred.core import Dataset, Query, binary
from causalpred.errors import (
    CausalPredError,
    DegenerateInput,
    InvalidParams,
    InvalidSize,
    LengthMismatch,
    ParseError,
    TagMismatch,
)
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
from causalpred.models import Dag
from causalpred.stattests import TestOutcome, fisher_z_from_corr
from oracles import ref_expected_risk, ref_run_anm_experiment, ref_run_ci_experiment


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
    assert cfg.l == 600  # each study's default when unset
    assert ExperimentConfig.from_json({"experiment": "ci"}).l == 10_000


@pytest.mark.parametrize(
    "obj", [{"experiment": "ci", "bogus": 1}, {"n": 5}, [1], {"experiment": "anm", "k_values": 3}]
)
def test_config_from_json_parse_errors(obj):
    with pytest.raises(ParseError):
        ExperimentConfig.from_json(obj)


def test_config_from_json_takes_an_int_for_a_float_and_no_bool_for_an_int():
    cfg = ExperimentConfig.from_json({"experiment": "ci", "expected_degree": 2})
    assert cfg.expected_degree == 2
    # an int alpha passes the type check and meets the range check
    with pytest.raises(InvalidParams, match=r"alpha 0 outside \(0, 1\)"):
        ExperimentConfig.from_json({"experiment": "ci", "alpha": 0})
    for key in ("n", "seed", "max_cond"):
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            ExperimentConfig.from_json({"experiment": "ci", key: False})
    with pytest.raises(ParseError, match="k_values must be a list of integers"):
        ExperimentConfig.from_json({"experiment": "anm", "k_values": [2, True]})


def test_bound_class_is_an_unknown_key():
    # the anm overlay is always the polytree class; no config names one
    for value in ("polytrees", "foo"):
        with pytest.raises(ParseError, match="bound_class"):
            ExperimentConfig.from_json({"experiment": "anm", "k_values": [2], "bound_class": value})


@pytest.mark.parametrize(
    "study, key, value, default",
    [
        ("ci", "k_values", (3,), ()),
        ("ci", "datasets", 2, 5),
        ("anm", "max_cond", 0, 1),
        ("anm", "oracle", True, False),
    ],
    ids=["ci-k_values", "ci-datasets", "anm-max_cond", "anm-oracle"],
)
def test_config_refuses_a_field_only_the_other_study_reads(study, key, value, default):
    # the study would run without it; a value equal to the default cannot be
    # told from a field left out, so it is accepted
    own = {"ci": {}, "anm": {"k_values": (2,)}}[study]

    def builds(v):  # through the constructor and through from_json
        obj = {"experiment": study, **own, key: v}
        return (lambda: ExperimentConfig(**obj)), (
            lambda: ExperimentConfig.from_json(json.loads(json.dumps(obj)))
        )

    for build in builds(value):
        with pytest.raises(InvalidParams, match=f"^{key} is not read by {study} experiments$"):
            build()
    for build in builds(default):
        assert getattr(build(), key) == default


def test_config_refuses_k_values_on_ci_and_an_oracle_on_anm():
    # an anm study asked for the truth would otherwise run HSIC tests; the
    # first refused field in declaration order is named
    assert _error(ExperimentConfig, "ci", k_values=(3,)) == (
        InvalidParams,
        "k_values is not read by ci experiments",
    )
    assert _error(ExperimentConfig, "anm", k_values=(2,), oracle=True, max_cond=3) == (
        InvalidParams,
        "max_cond is not read by anm experiments",
    )


def test_experiment_type_mismatch():
    with pytest.raises(InvalidParams):
        run_ci_experiment(ExperimentConfig("anm", k_values=(5,)))
    with pytest.raises(InvalidParams):
        run_anm_experiment(ExperimentConfig("ci"))


def _error(fn, *args, **kwargs):
    with pytest.raises(CausalPredError) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_config_refuses_what_a_step_would_refuse_before_any_work(monkeypatch):
    # each value is refused with the error of the step that would refuse it
    # later: a test, gap_binary, PC, polytree_from_anm, gen or sample; and no
    # SCM is drawn
    data = Dataset(np.random.default_rng(1).standard_normal((30, 6)), tuple(range(6)))
    truth = Dag(3, frozenset({(0, 1)}))
    wide = synthgen.LinearScm(200, range(200), np.zeros((200, 200)))
    pair = Query.ordered_pair(0, 1)
    short, long = (Dataset(np.random.default_rng(2).standard_normal((l, 2)), (0, 1)) for l in (19, 5001))

    def no_rng(*args, **kwargs):
        raise AssertionError("an SCM was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    cases = [
        ({"alpha": 1.5, "oracle": True}, fisher_z_from_corr, np.eye(2), 10, (0, 1), (), 1.5),
        ({"alpha": 0.0}, fisher_z_from_corr, np.eye(2), 10, (0, 1), (), 0.0),
        ({"eta": 1.0}, gap_binary, 1, 1, 1.0),
        ({"experiment": "anm", "k_values": (2,), "eta": -0.5}, gap_binary, 1, 1, -0.5),
        ({"max_cond": -1}, learners.pc_oracle, truth, -1),
        ({"experiment": "anm", "n": 6, "k_values": (10, 31)}, learners.polytree_from_anm, data, 31, 0.05, 0),
        ({"experiment": "anm", "n": 6, "k_values": (0,)}, learners.polytree_from_anm, data, 0, 0.05, 0),
        # past gen's limit, once its O(n^2) ordered-pair universe was built
        ({"experiment": "anm", "n": 1001, "k_values": (5,)}, synthgen.gen_gam_scm, 1001, 1.5, 0),
        ({"experiment": "anm", "k_values": (5,), "expected_degree": 0}, synthgen.gen_gam_scm, 6, 0, 0),
        ({"expected_degree": 9.0}, synthgen.gen_linear_scm, 6, 9.0, 0),
        # sample's limits, which a ci run meets after building its universe
        ({"n": 200, "l": 50_001}, synthgen.sample, wide, 50_001, 0),
        ({"l": 0}, synthgen.sample, wide, 0, 0),
        # the ANM test's row limits, which a run meets after gen and sample
        ({"experiment": "anm", "k_values": (5,), "l": 19}, harness.anm_test, short, pair, 0.05),
        ({"experiment": "anm", "k_values": (5,), "l": 5001}, harness.anm_test, long, pair, 0.05),
    ]
    for update, step, *args in cases:
        cfg = {"experiment": "ci", "n": 6, "l": 300, "repetitions": 2, **update}
        assert _error(ExperimentConfig, **cfg) == _error(step, *args)
    assert _error(ExperimentConfig, "anm") == (InvalidParams, "anm experiment needs k_values")
    # an unset l is each study's own: within the ANM test's row limits for anm
    assert ExperimentConfig("anm", k_values=(5,)).l == 600
    assert ExperimentConfig("ci").l == 10_000


def test_a_ci_experiment_past_the_node_limit_is_refused_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment started")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(harness, "ci_query_array", refuse)
    n = harness.MAX_CI_NODES + 1
    for oracle in (False, True):
        assert _error(ExperimentConfig, "ci", n=n, l=2000, oracle=oracle) == (
            InvalidSize,
            f"a ci experiment on {n} nodes; the limit is {harness.MAX_CI_NODES} nodes",
        )
    ExperimentConfig("ci", n=harness.MAX_CI_NODES)
    ExperimentConfig("anm", n=n, k_values=(5,))  # the limit is the ci universe's


# --- risk plumbing ------------------------------------------------------------


def _const_tester(value):
    def tester(queries):
        return np.full(len(queries), value)

    return tester


def test_expected_risk_half_disagreement():
    queries = [Query.ci(0, 1), Query.ci(0, 2)]
    risk = expected_risk(lambda qs: [int(q == Query.ci(0, 1)) for q in qs], queries, _const_tester(1))
    assert risk == 0.5


def test_expected_risk_perfect_oracle():
    queries = [Query.ci(0, 1), Query.ci(0, 2), Query.ci(1, 2)]
    assert expected_risk(lambda qs: np.ones(len(qs), dtype=int), queries, _const_tester(1)) == 0.0


def test_expected_risk_random_predictor_on_balanced_labels():
    queries = [Query.ci(0, i) for i in range(1, 101)]
    labels = {q: i % 2 for i, q in enumerate(queries)}

    def tester(qs):
        return [labels[q] for q in qs]

    risks = []
    for s in range(40):
        rng = np.random.default_rng(s)
        draws = {q: int(rng.random() < 0.5) for q in queries}
        risks.append(expected_risk(lambda qs: [draws[q] for q in qs], queries, tester))
    assert abs(np.mean(risks) - 0.5) < 0.05


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=300))
def test_expected_risk_equals_the_per_query_reference(pairs):
    queries = [Query.ci(0, 1, (i + 2,)) for i in range(len(pairs))]
    pred = dict(zip(queries, (p for p, _ in pairs)))
    res = dict(zip(queries, (r for _, r in pairs)))
    got = expected_risk(lambda qs: [pred[q] for q in qs], queries, lambda qs: [res[q] for q in qs])
    want = ref_expected_risk(pred.__getitem__, queries, lambda q: TestOutcome(binary(res[q])))
    assert type(got) is float and got == want


def test_expected_risk_errors():
    queries = [Query.ci(0, 1), Query.ci(0, 2)]
    with pytest.raises(LengthMismatch):
        expected_risk(lambda qs: [1], queries, _const_tester(1))
    with pytest.raises(LengthMismatch):
        expected_risk(lambda qs: [], [], lambda qs: [])
    for bad in ([0, 2], [-1, 1], [0.5, 1]):
        with pytest.raises(TagMismatch):
            expected_risk(lambda qs: bad, queries, _const_tester(1))
        with pytest.raises(TagMismatch):
            expected_risk(_const_tester(1), queries, lambda qs: bad)


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
    # in source-major order, which the benchmark's draw from the taps reads
    assert [q.members for (_, q, _), _ in calls] == [
        (a, b) for a in range(3) for b in range(3) if a != b
    ]


def test_an_anm_config_with_too_few_rows_is_refused_at_its_first_test(monkeypatch):
    # the config refuses l with the error of the first test, so no Query is
    # built and no SCM drawn
    data = Dataset(np.random.default_rng(0).standard_normal((10, 2)), (0, 1))
    want = _error(harness.anm_test, data, Query.ordered_pair(0, 1), 0.001)
    built = []
    post_init = Query.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Query, "__post_init__", counting)
    assert _error(ExperimentConfig, "anm", n=200, l=10, k_values=(5,), datasets=1, repetitions=1) == want
    assert built == []


@pytest.mark.parametrize("max_cond", [0, 1, 2])
@pytest.mark.parametrize("oracle", [False, True], ids=["fisher-z", "oracle"])
def test_ci_records_equal_the_per_query_reference(oracle, max_cond):
    # at max_cond 2 PC tests its level-2 rows, which the universe table
    # does not hold, and the fitted DAG is scored on them directly
    cfgs = [
        ExperimentConfig(
            "ci", n=8, l=2000, alpha=0.01, repetitions=3, seed=seed, max_cond=max_cond, oracle=oracle
        )
        for seed in (0, 7)
    ]
    # the size of the benchmark's ci workloads
    cfgs.append(
        ExperimentConfig(
            "ci", n=20, l=10_000, alpha=0.001, repetitions=2, seed=3, max_cond=max_cond, oracle=oracle
        )
    )
    for cfg in cfgs:
        assert run_ci_experiment(cfg) == ref_run_ci_experiment(cfg)


@pytest.mark.parametrize("oracle", [False, True], ids=["fisher-z", "oracle"])
def test_ci_replicate_labels_the_universe_once(monkeypatch, oracle):
    # PC reads levels 0 and 1 from the replicate's table of the universe:
    # one Fisher-Z call, or one walk of the true graph, labels it, and one
    # walk of the fitted DAG predicts it and PC's log
    calls = {"fisher_z": 0, "walks": 0}

    def counting(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    monkeypatch.setattr(learners, "_fisher_z", counting("fisher_z", learners._fisher_z))
    monkeypatch.setattr(models, "d_connection_rows", counting("walks", models.d_connection_rows))
    reps = 3
    run_ci_experiment(ExperimentConfig("ci", n=8, l=500, alpha=0.05, repetitions=reps, seed=4, oracle=oracle))
    assert calls == ({"fisher_z": 0, "walks": 2 * reps} if oracle else {"fisher_z": reps, "walks": reps})


def _crafted_sample(monkeypatch, edit):
    """Make the harness's samples go through ``edit`` of their matrix."""
    original = harness.sample

    def crafted(scm, l, seed):
        x = np.array(original(scm, l, seed).dataset.samples)
        edit(x)
        return synthgen.ScmSample(Dataset(x, tuple(range(scm.n))))

    monkeypatch.setattr(harness, "sample", crafted)


def _set(j, value):
    def edit(x):
        x[:, j] = value(x)

    return edit


@pytest.mark.parametrize(
    "edit, l, max_cond, error, message",
    [
        (None, 4, 1, InvalidSize, "need more than 4 samples"),  # every order-1 row
        (None, 3, 1, InvalidSize, "need more than 3 samples"),  # PC's first pair
        (_set(2, lambda x: 1.5), 500, 1, DegenerateInput, "column 2 is constant"),
        # a conditioning variable collinear with a target: its pair's level-0
        # test meets the +-1 boundary first
        (_set(3, lambda x: x[:, 1]), 500, 1, DegenerateInput, "partial correlation at the +-1 boundary or undefined"),
        # x3 = x0 + x1 with x0, x1 independent: PC separates 0 and 1 at level
        # 0 and never consults (0, 1 | 3), whose partial correlation is -1;
        # the universe's table refuses it after PC
        (_set(3, lambda x: x[:, 0] + x[:, 1]), 500, 2, DegenerateInput, "partial correlation at the +-1 boundary or undefined"),
    ],
    ids=["l=4", "l=3", "constant", "collinear", "unconsulted"],
)
def test_ci_refusals_keep_their_class_and_message(monkeypatch, edit, l, max_cond, error, message):
    if edit is not None:
        _crafted_sample(monkeypatch, edit)
    cfg = ExperimentConfig("ci", n=6, l=l, alpha=0.01, max_cond=max_cond, repetitions=2, seed=1)
    assert _error(run_ci_experiment, cfg) == (error, message)


def test_ci_replicate_builds_one_correlation_matrix(monkeypatch):
    # PC tests on the matrix the harness builds to score the universe
    built = []
    original = harness.correlation_matrix

    def counting(d):
        built.append(d)
        return original(d)

    monkeypatch.setattr(harness, "correlation_matrix", counting)
    monkeypatch.setattr(learners, "correlation_matrix", lambda d: pytest.fail("a second matrix"))
    run_ci_experiment(ExperimentConfig("ci", n=6, l=500, repetitions=3, seed=2))
    assert len(built) == 3


def test_anm_records_equal_the_per_query_reference():
    # criterion 6 sized down: n 10 -> 5, m 600 -> 150, 3 datasets -> 2
    cfg = ExperimentConfig(
        "anm", n=5, l=150, alpha=0.05, repetitions=4, seed=11, k_values=(4, 10, 20), datasets=2
    )
    assert run_anm_experiment(cfg) == ref_run_anm_experiment(cfg)


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
