import gc
import re
import weakref
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpred import learners
from causalpred.core import Dataset, Query, QueryKind, binary, sample_queries
from causalpred.errors import (
    DataError,
    DegenerateInput,
    InvalidParams,
    InvalidSize,
    KTooLarge,
    ZeroCorrelation,
)
from causalpred.learners import (
    LabeledQuery,
    TestLog,
    fit_path_model,
    pc_fit,
    pc_from_ci,
    pc_oracle,
    polytree_from_anm,
    select_alpha,
)
from causalpred.models import Dag, PathModel, is_polytree_edges, path_corr
from causalpred.stattests import TestOutcome, anm_test, correlation_matrix, fisher_z_many
from causalpred.synthgen import gen_gam_scm, gen_linear_scm, sample
from oracles import (
    RefPdag,
    labelled_pc_fit,
    labelled_pc_oracle,
    moral_d_separated,
    random_dag,
    ref_fisher_z_from_corr,
    ref_pc_from_ci,
    ref_polytree_from_anm,
    ref_select_alpha,
    scalar_labeller,
)

CHAIN = Dag(3, [(0, 1), (1, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])


# --- PC -----------------------------------------------------------------------


def test_pc_oracle_chain():
    cpdag, labels = pc_oracle(CHAIN, max_cond=1)
    assert cpdag.directed == frozenset()
    assert cpdag.undirected == frozenset({frozenset((0, 1)), frozenset((1, 2))})
    # executed tests are deduplicated canonical queries
    assert len({lq.query for lq in labels}) == len(labels)


def test_pc_oracle_collider():
    cpdag, _ = pc_oracle(COLLIDER, max_cond=1)
    assert cpdag.directed == frozenset({(0, 2), (1, 2)})
    assert cpdag.undirected == frozenset()


def test_pc_oracle_labels_match_d_separation():
    from causalpred.models import d_separated

    g = Dag(4, [(0, 1), (1, 3), (2, 3)])
    _, labels = pc_oracle(g, max_cond=2)
    for lq in labels:
        assert lq.outcome.value.value == d_separated(g, lq.query)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.4, 0.7]), st.integers(0, 3))
def test_pc_oracle_equals_pc_on_the_moral_oracle(n, seed, p, max_cond):
    # one d_separated_many call a level gives PC the CPDAG and log that one
    # moral-graph d-separation per test gives
    g = random_dag(n, seed, p)
    want = pc_from_ci(n, scalar_labeller(_moral_tester(g)), max_cond)
    assert pc_oracle(g, max_cond) == want


def test_pc_fit_all_independent():
    rng = np.random.default_rng(0)
    d = Dataset(rng.standard_normal((5000, 4)), (0, 1, 2, 3))
    cpdag, labels = pc_fit(d, alpha=0.001, max_cond=1)
    assert cpdag.directed == frozenset()
    assert cpdag.undirected == frozenset()
    assert labels  # marginal tests were executed


def test_pc_fit_recovers_collider():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20000)
    y = rng.standard_normal(20000)
    z = 0.7 * x + 0.7 * y + rng.standard_normal(20000)
    d = Dataset(np.column_stack([x, y, z]), (0, 1, 2))
    cpdag, _ = pc_fit(d, alpha=0.001, max_cond=1)
    assert cpdag.directed == frozenset({(0, 2), (1, 2)})


def test_pc_fit_deterministic():
    scm = gen_linear_scm(8, 1.5, seed=3)
    d = sample(scm, 3000, seed=4).dataset
    a, la = pc_fit(d, 0.01, 1)
    b, lb = pc_fit(d, 0.01, 1)
    assert a == b
    assert [(q.query, q.outcome.p_value) for q in la] == [
        (q.query, q.outcome.p_value) for q in lb
    ]


@pytest.mark.parametrize("seed, max_cond", [(3, 1), (9, 1), (21, 2)])
def test_pc_fit_log_matches_reference_tester(seed, max_cond):
    # the log is PC's training set: the same queries in the same order,
    # with the same labels, whichever Fisher-Z formula labels them
    d = sample(gen_linear_scm(15, 1.5, seed), 5000, seed + 1).dataset
    corr = np.corrcoef(d.samples, rowvar=False)
    cpdag, log = pc_fit(d, 0.001, max_cond)
    ref_cpdag, ref_log = pc_from_ci(
        15,
        scalar_labeller(lambda a, b, cond: ref_fisher_z_from_corr(corr, d.l, (a, b), cond, 0.001)),
        max_cond,
    )
    assert cpdag == ref_cpdag
    assert [(lq.query, lq.outcome.value) for lq in log] == [
        (lq.query, lq.outcome.value) for lq in ref_log
    ]
    assert max(abs(x.outcome.p_value - y.outcome.p_value) for x, y in zip(log, ref_log)) <= 1e-12


@pytest.mark.parametrize("seed, max_cond", [(3, 1), (21, 2)])
def test_pc_fit_on_a_given_correlation_matrix(seed, max_cond):
    # the CI experiment hands PC the matrix it scores the universe with
    d = sample(gen_linear_scm(15, 1.5, seed), 5000, seed + 1).dataset
    cpdag, log = pc_fit(d, 0.001, max_cond, corr=correlation_matrix(d))
    ref_cpdag, ref_log = pc_fit(d, 0.001, max_cond)
    assert cpdag == ref_cpdag
    assert [(lq.query, lq.outcome.value.value, lq.outcome.p_value) for lq in log] == [
        (lq.query, lq.outcome.value.value, lq.outcome.p_value) for lq in ref_log
    ]


def test_pc_fit_and_fit_path_name_a_constant_column():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((100, 3))
    samples[:, 1] = 4.0
    d = Dataset(samples, (2, 0, 1))  # the column at position 1 has id 0
    for fit in (lambda: pc_fit(d, 0.01, 1), lambda: fit_path_model(d)):
        with pytest.raises(DegenerateInput, match="column 0 is constant"):
            fit()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
    st.sampled_from(["oracle", "random"]),
)
def test_pc_orientation_matches_edge_set_reference(n, seed, max_cond, kind):
    """Equal CPDAGs and logs with the former edge-set PDAG.  Random outcomes
    leave separating sets no DAG has, so v-structures conflict and some
    orientations would close a cycle."""
    if kind == "oracle":
        g = random_dag(n, seed, p=0.4)

        def run():
            return pc_oracle(g, max_cond)

    else:

        def run():
            return pc_from_ci(n, scalar_labeller(_random_tester(seed)), max_cond)

    cpdag, labels = run()
    with mock.patch.object(learners, "_Pdag", RefPdag):
        ref_cpdag, ref_labels = run()
    assert cpdag == ref_cpdag
    assert labels == ref_labels


def _random_tester(seed, p_independent=0.4):
    # a stream per query, so an outcome does not depend on when it is asked
    def test(a, b, cond):
        u = np.random.default_rng([seed, a, b, *cond]).random()
        return TestOutcome(binary(int(u < p_independent)), None, None)

    return test


def _moral_tester(g):
    return lambda a, b, cond: TestOutcome(binary(moral_d_separated(g, a, b, set(cond))), None, None)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.integers(0, 10),
    st.sampled_from(["oracle", "random"]),
)
def test_pc_equals_the_repeat_scan_reference(n, seed, max_cond, kind):
    # one scan per level, stopped after level n - 2, gives the CPDAG and the
    # log (queries, outcomes, order) of the loop that repeated each level
    # until a pass removed nothing and ran every level up to max_cond
    g = random_dag(n, seed, p=0.4)
    tester = _random_tester(seed) if kind == "random" else _moral_tester(g)
    cpdag, log = pc_from_ci(n, scalar_labeller(tester), max_cond)
    ref_cpdag, ref_log = ref_pc_from_ci(n, tester, max_cond)
    assert (cpdag, list(log)) == (ref_cpdag, ref_log)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pc_max_cond_past_n_minus_2_returns_what_n_minus_2_does(n):
    # no pair has more than n - 2 candidates, so PC stops there however
    # large max_cond is; the repeat-scan loop ran 10**30 levels
    tester = scalar_labeller(_random_tester(n))
    assert pc_from_ci(n, tester, 10**30) == pc_from_ci(n, tester, n - 2)
    g = random_dag(n, n, p=0.5)
    assert pc_oracle(g, 10**30) == pc_oracle(g, n - 2)


def test_pc_fit_refuses_column_ids_that_are_not_0_to_k_minus_1():
    # PC's nodes are positions 0..k-1, looked up as column ids
    d = Dataset(np.random.default_rng(0).standard_normal((100, 3)), (5, 7, 9))
    with pytest.raises(DataError, match=r"ids \[5, 7, 9\] are outside"):
        pc_fit(d, 0.01, 1)
    d = Dataset(d.samples, (0, 1, 3))
    with pytest.raises(DataError, match=r"column ids 0..2 in some order; ids \[3\] are outside"):
        pc_fit(d, 0.01, 1)


def test_pc_fit_on_permuted_column_ids():
    # a column keeps its id whatever its position: the permuted file gives
    # the CPDAG and labels of the same columns in id order
    d = sample(gen_linear_scm(6, 1.5, 4), 3000, 5).dataset
    order = [2, 0, 5, 1, 4, 3]
    permuted = Dataset(d.samples[:, order], tuple(order))
    cpdag, log = pc_fit(permuted, 0.01, 2)
    want_cpdag, want_log = pc_fit(d, 0.01, 2)
    assert cpdag == want_cpdag
    assert [(lq.query, lq.outcome.value) for lq in log] == [
        (lq.query, lq.outcome.value) for lq in want_log
    ]
    assert max(abs(x.outcome.p_value - y.outcome.p_value) for x, y in zip(log, want_log)) <= 1e-12


def test_pc_negative_max_cond():
    with pytest.raises(InvalidSize):
        pc_from_ci(3, lambda rows: None, -1)


def test_pc_fit_raises_only_on_a_test_it_consults():
    # PC separates 0 and 3 before it reaches (0, 3 | 1), where y - x given
    # x is y, a partial correlation at +-1 that the batch call refuses
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2000)
    x = z + rng.standard_normal(2000)
    y = z + rng.standard_normal(2000)
    d = Dataset(np.column_stack([y, x, z, y - x]), (0, 1, 2, 3))
    cpdag, log = pc_fit(d, 0.01, 1)
    assert len(log) == 11
    assert cpdag.directed == frozenset({(0, 3), (1, 3), (2, 0), (2, 1)})
    assert Query.ci(0, 3, (1,)) not in {lq.query for lq in log}
    boundary = re.escape("partial correlation at the +-1 boundary or undefined")
    with pytest.raises(DegenerateInput, match=boundary):
        fisher_z_many(correlation_matrix(d), d.l, [[0, 3, 1]], 0.01)
    # a consulted row that fails still raises: b + c given c is b
    b, c = rng.standard_normal((2, 500))
    with pytest.raises(DegenerateInput, match=boundary):
        pc_fit(Dataset(np.column_stack([b + c, b, c]), (0, 1, 2)), 0.05, 1)


def test_pc_from_ci_labels_each_level_in_one_call():
    # every candidate of a level, in scan order, from the adjacency at the
    # level's start; independence everywhere at level 0 leaves no level 1
    calls = []

    def label(rows):
        calls.append(rows.tolist())
        return (rows[:, 0] == 0).astype(np.int64), None

    cpdag, log = pc_from_ci(4, label, 2)
    assert calls[0] == [[a, b] for a in range(4) for b in range(a + 1, 4)]
    assert [lq.query for lq in log][:6] == [Query.ci(*row) for row in calls[0]]
    assert calls[1] == [[1, 2, 3], [1, 3, 2], [2, 3, 1]]
    assert len(calls) == 2 and cpdag.directed == frozenset()


def _log_as_tuples(log):
    # a p-value as its hex text, so that equal means equal bit for bit
    return [
        (
            lq.query,
            lq.outcome.value,
            None if lq.outcome.p_value is None else lq.outcome.p_value.hex(),
            lq.outcome.alpha,
        )
        for lq in log
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.4, 0.7]), st.integers(0, 3))
def test_pc_oracle_log_equals_the_labelled_query_loop(n, seed, p, max_cond):
    # the arrays hold the queries, order and labels of one LabeledQuery per
    # consulted test, with no p-values and no alpha
    g = random_dag(n, seed, p)
    cpdag, log = pc_oracle(g, max_cond)
    ref_cpdag, ref_log = labelled_pc_oracle(g, max_cond)
    assert cpdag == ref_cpdag
    assert _log_as_tuples(log) == _log_as_tuples(ref_log)
    assert log.p_values is None and log.alpha is None


@pytest.mark.parametrize("seed", range(12))
def test_pc_fit_log_equals_the_labelled_query_loop(seed):
    # both sides read the same _fisher_z arrays, so the p-values agree
    # bit for bit; the column ids are a permutation of the positions
    n = 5 + seed % 6
    d = sample(gen_linear_scm(n, 1.5, seed), 1000 + 500 * seed, seed + 1).dataset
    order = np.random.default_rng(seed).permutation(n)
    d = Dataset(d.samples[:, order], tuple(order.tolist()))
    alpha = (0.001, 0.01, 0.05)[seed % 3]
    cpdag, log = pc_fit(d, alpha, 2)
    ref_cpdag, ref_log = labelled_pc_fit(d, alpha, 2)
    assert cpdag == ref_cpdag
    assert _log_as_tuples(log) == _log_as_tuples(ref_log)
    assert log.alpha == alpha and any(lq.query.cond for lq in log)


def test_pc_log_is_a_read_only_sequence_of_labelled_queries():
    d = sample(gen_linear_scm(6, 1.5, 4), 3000, 5).dataset
    _, log = pc_fit(d, 0.01, 2)
    ref = labelled_pc_fit(d, 0.01, 2)[1]
    assert isinstance(log, Sequence) and len(log) == len(ref)
    assert log[-1] == ref[-1] and list(log) == ref
    with pytest.raises(IndexError):
        log[len(log)]
    # rows padded with -1 to the largest conditioning set in the log
    width = 2 + max(len(lq.query.cond) for lq in ref)
    assert log.rows.shape == (len(ref), width)
    assert log.rows.tolist() == [
        [*lq.query.members, *lq.query.cond] + [-1] * (width - 2 - len(lq.query.cond)) for lq in ref
    ]
    for a in (log.rows, log.labels, log.p_values):
        with pytest.raises(ValueError):
            a[0] = 0
    assert log == pc_fit(d, 0.01, 2)[1]
    assert log != pc_fit(d, 0.05, 2)[1]
    assert log != TestLog(log.rows, log.labels, None, log.alpha)
    assert log != ref  # a log equals logs, not lists


def test_pc_fit_frees_its_dataset_without_the_cyclic_collector():
    # no reference cycle keeps the dataset alive past the fit, and the log
    # holds neither the dataset nor the correlation matrix
    d = sample(gen_linear_scm(8, 1.5, 3), 2000, 4).dataset
    samples = weakref.ref(d.samples)
    gc.disable()
    try:
        result = pc_fit(d, 0.01, 2)
        held = list(vars(result[1]).values())
        held += [a.base for a in held if isinstance(a, np.ndarray)]
        assert not any(isinstance(v, Dataset) for v in held)
        matrices = [v for v in held if isinstance(v, np.ndarray) and v.dtype == float and v.ndim == 2]
        assert not matrices  # no correlation matrix, nor a view of one
        del d, result, held, matrices
        assert samples() is None
    finally:
        gc.enable()


# --- alpha selection ----------------------------------------------------------


def test_select_alpha_single_candidate():
    assert select_alpha([0.01], [gen_linear_scm(5, 1.5, 0)], l=500) == 0.01


def test_select_alpha_prefers_calibrated_level():
    scms = [gen_linear_scm(8, 1.5, s) for s in range(3)]
    assert select_alpha([0.5, 0.001], scms, l=5000) == 0.001


def test_select_alpha_empty():
    with pytest.raises(InvalidSize):
        select_alpha([], [], l=100)


@pytest.mark.parametrize("seed", range(4))
def test_select_alpha_matches_the_scalar_loop(seed):
    scms = [gen_linear_scm(7, 1.5, 10 * seed + i) for i in range(3)]
    candidates = [0.3, 0.05, 0.01, 1e-3, 1e-5]
    for l in (60, 400, 3000):
        assert select_alpha(candidates, scms, l, seed) == ref_select_alpha(candidates, scms, l, seed)


def test_select_alpha_refuses_a_bad_candidate():
    with pytest.raises(InvalidParams):
        select_alpha([0.05, 1.0], [gen_linear_scm(5, 1.5, 0)], l=500)


def test_select_alpha_checks_its_input_before_any_work():
    # no SCM means no score, so neither a lone bad candidate nor the good
    # first one of two may come back
    for candidates in ([5.0], [0.01, 7.0]):
        with pytest.raises(InvalidParams):
            select_alpha(candidates, [], l=100)
    with pytest.raises(InvalidSize):
        select_alpha([0.01], [], l=100)
    # a bad last candidate is refused before the first sample is drawn
    with mock.patch.object(learners, "sample", side_effect=AssertionError("sampled")):
        with pytest.raises(InvalidParams):
            select_alpha([0.01, 0.05, 0.0], [gen_linear_scm(5, 1.5, 0)], l=500)


# --- polytree from additive-noise outcomes ------------------------------------


def _synthetic_outcome(edge_pvalues, pair):
    if pair in edge_pvalues:
        return TestOutcome(binary(1), edge_pvalues[pair], 0.05)
    return TestOutcome(binary(0), 0.001, 0.05)


def _synthetic_tester(edge_pvalues):
    """The batch tester of ``_ref_synthetic_tester``'s outcomes, a None
    p-value as 0.0."""

    def tester(rows):
        outs = [_synthetic_outcome(edge_pvalues, tuple(row)) for row in rows.tolist()]
        labels = np.array([out.value.value for out in outs], dtype=np.int64)
        return labels, np.array([out.p_value or 0.0 for out in outs])

    return tester


def _ref_synthetic_tester(edge_pvalues):
    return lambda q: _synthetic_outcome(edge_pvalues, q.members)


def test_polytree_from_synthetic_outcomes():
    d = Dataset(np.zeros((30, 3)), (0, 1, 2))
    tester = _synthetic_tester({(0, 1): 0.9, (1, 2): 0.8})
    tree, labels = polytree_from_anm(d, k=6, alpha=0.05, seed=0, tester=tester)
    assert tree.edges == frozenset({(0, 1), (1, 2)})
    assert len(labels) == 6


def test_polytree_cycle_removal_drops_lowest_p():
    d = Dataset(np.zeros((30, 3)), (0, 1, 2))
    tester = _synthetic_tester({(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
    tree, _ = polytree_from_anm(d, k=6, alpha=0.05, seed=0, tester=tester)
    assert tree.edges == frozenset({(0, 1), (1, 2)})


def _fit_all_pairs(columns, edge_pvalues):
    """Polytree fitted from every ordered pair of the columns."""
    n = len(columns)
    d = Dataset(np.zeros((30, n)), tuple(columns))
    tree, _ = polytree_from_anm(
        d, k=n * (n - 1), alpha=0.05, seed=0, tester=_synthetic_tester(edge_pvalues)
    )
    return tree.edges


def test_polytree_keeps_every_edge_of_a_forest():
    forest = {(0, 1): 0.2, (1, 2): 0.3, (3, 2): 0.01, (4, 5): 0.5}
    assert _fit_all_pairs(range(6), forest) == frozenset(forest)
    assert _fit_all_pairs(range(4), {}) == frozenset()


def test_polytree_triangle_drops_lowest_p_edge():
    triangle = [(0, 1), (1, 2), (2, 0)]
    for weakest in range(3):
        pvalues = {e: 0.9 - 0.1 * i for i, e in enumerate(triangle)}
        pvalues[triangle[weakest]] = 0.05
        kept = _fit_all_pairs(range(3), pvalues)
        assert kept == frozenset(triangle) - {triangle[weakest]}


def test_polytree_opposite_directions_keep_higher_p():
    # 0->1 and 1->0 form an undirected 2-cycle
    assert _fit_all_pairs(range(2), {(0, 1): 0.3, (1, 0): 0.7}) == {(1, 0)}
    assert _fit_all_pairs(range(2), {(0, 1): 0.7, (1, 0): 0.3}) == {(0, 1)}


def test_polytree_cycle_leaves_other_component_untouched():
    # the lone edge is weaker than every cycle edge and still survives
    pvalues = {(0, 1): 0.01, (3, 4): 0.9, (4, 5): 0.8, (5, 3): 0.6}
    assert _fit_all_pairs(range(6), pvalues) == {(0, 1), (3, 4), (4, 5)}


def _forest_path(edges, a, b):
    """Edges on the path from a to b in an undirected forest, or None."""
    incident = {}
    for e in edges:
        for u, v in (e, e[::-1]):
            incident.setdefault(u, []).append((v, e))
    via = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        for v, e in incident.get(u, ()):
            if v not in via:
                via[v] = (u, e)
                stack.append(v)
    if b not in via:
        return None
    path = []
    while b != a:
        b, e = via[b]
        path.append(e)
    return path


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 20), min_size=2, max_size=7, unique=True),
    st.data(),
)
def test_polytree_is_maximum_spanning_forest_with_ties(columns, data):
    n = len(columns)
    pairs = [(a, b) for a in columns for b in columns if a != b]
    pvalues = data.draw(
        st.dictionaries(st.sampled_from(pairs), st.sampled_from([None, 0.0, 0.2, 0.5, 0.9]))
    )
    k = data.draw(st.integers(1, len(pairs)))
    seed = data.draw(st.integers(0, 2**16))
    d = Dataset(np.zeros((30, n)), tuple(columns))
    tree, labels = polytree_from_anm(
        d, k=k, alpha=0.05, seed=seed, tester=_synthetic_tester(pvalues)
    )
    # the former learner, whose None p-value ranks as 0.0, fits the same tree
    ref_tree, ref_labels = ref_polytree_from_anm(d, k, 0.05, seed, tester=_ref_synthetic_tester(pvalues))
    assert tree == ref_tree
    assert _log_as_tuples(labels) == _log_as_tuples(
        LabeledQuery(lq.query, TestOutcome(lq.outcome.value, lq.outcome.p_value or 0.0, 0.05))
        for lq in ref_labels
    )
    accepted = {lq.query.members: lq.outcome.p_value for lq in ref_labels if lq.outcome.value.value}
    kept = tree.edges
    assert kept <= set(accepted)
    assert is_polytree_edges(tree.n, kept)
    pos = {v: i for i, v in enumerate(columns)}

    def key(e):
        p = accepted[e]
        return (0.0 if p is None else p, (pos[e[0]], pos[e[1]]))

    for e in set(accepted) - kept:
        cycle = _forest_path(kept, *e)
        assert cycle is not None, f"dropped {e} joins two trees"
        assert all(key(f) > key(e) for f in cycle), f"dropped {e} is not the weakest on its cycle"


def test_polytree_k_bounds():
    d = Dataset(np.zeros((30, 3)), (0, 1, 2))
    with pytest.raises(KTooLarge):
        polytree_from_anm(d, k=7, alpha=0.05, seed=0, tester=_synthetic_tester({}))
    with pytest.raises(KTooLarge):
        polytree_from_anm(d, k=0, alpha=0.05, seed=0, tester=_synthetic_tester({}))


def test_polytree_k_subset_is_without_replacement():
    d = Dataset(np.zeros((30, 4)), (0, 1, 2, 3))
    _, labels = polytree_from_anm(d, k=5, alpha=0.05, seed=7, tester=_synthetic_tester({}))
    assert len({lq.query for lq in labels}) == 5


@pytest.mark.parametrize("k", [1, 10, 45, 90])
def test_polytree_draws_the_queries_a_draw_from_the_query_universe_gives(k):
    # random.sample picks positions from the population's length alone,
    # so drawing positions and building the drawn queries labels the
    # queries drawn from the list of all ordered-pair queries
    columns = (3, 0, 7, 1, 2, 9, 4, 5, 6, 8)
    d = Dataset(np.zeros((30, 10)), columns)
    universe = [Query.ordered_pair(a, b) for a in columns for b in columns if a != b]
    for seed in range(20):
        _, labels = polytree_from_anm(d, k, 0.05, seed, tester=_synthetic_tester({}))
        assert [lq.query for lq in labels] == sample_queries(universe, k, seed)


def test_polytree_respects_global_column_ids():
    # columns are global ids 5, 6, 7, not positions
    d = Dataset(np.zeros((30, 3)), (5, 6, 7))
    tester = _synthetic_tester({(5, 6): 0.9, (6, 7): 0.8})
    tree, _ = polytree_from_anm(d, k=6, alpha=0.05, seed=0, tester=tester)
    assert tree.edges == frozenset({(5, 6), (6, 7)})


def test_polytree_runs_its_anm_tests_source_by_source(monkeypatch):
    # anm_test keeps the last source's Gram and ridge factor, so the
    # default tester runs the drawn pairs in sorted order; the labels stay
    # in drawn order and equal those of testing in drawn order
    d = sample(gen_gam_scm(6, 1.5, 25), 200, seed=125).dataset
    for k in (7, 30):
        drawn = ref_polytree_from_anm(d, k, 0.05, seed=k, tester=lambda q: anm_test(d, q, 0.05))
        run = []

        def recorded(data, q, alpha):
            run.append(q.members)
            return anm_test(data, q, alpha)

        with monkeypatch.context() as patch:
            patch.setattr(learners, "anm_test", recorded)
            tree, labels = polytree_from_anm(d, k, 0.05, seed=k)
        assert tree == drawn[0] and _log_as_tuples(labels) == _log_as_tuples(drawn[1])
        assert run == sorted(lq.query.members for lq in labels)
        assert run != [lq.query.members for lq in labels]


@pytest.mark.parametrize("seed", range(8))
def test_polytree_equals_the_labelled_query_learner(seed):
    # GAM data with permuted column ids; p-values bit for bit
    n = 3 + seed % 5
    d = sample(gen_gam_scm(n, 1.5, seed), 150, seed + 1).dataset
    order = np.random.default_rng(seed).permutation(n)
    d = Dataset(d.samples[:, order], tuple((3 * order).tolist()))
    alpha = (0.05, 0.2)[seed % 2]
    for k in sorted({1, n, n * (n - 1) // 2, n * (n - 1)}):
        tree, log = polytree_from_anm(d, k, alpha, seed)
        ref_tree, ref_log = ref_polytree_from_anm(d, k, alpha, seed)
        assert tree == ref_tree
        assert _log_as_tuples(log) == _log_as_tuples(ref_log)
        assert log.kind == QueryKind.ORDERED_PAIR and log.alpha == alpha


def test_an_ordered_pair_log_keeps_member_order():
    rows = np.array([[3, 1], [0, 2]])
    log = TestLog(rows, np.array([1, 0]), np.array([0.5, 0.01]), 0.05, QueryKind.ORDERED_PAIR)
    assert [lq.query for lq in log] == [Query.ordered_pair(3, 1), Query.ordered_pair(0, 2)]
    assert log[0].query.members == (3, 1)
    assert log[0].outcome == TestOutcome(binary(1), 0.5, 0.05)
    ci = TestLog(rows.copy(), np.array([1, 0]), np.array([0.5, 0.01]), 0.05)
    assert ci[0].query == Query.ci(1, 3) and log != ci  # a log equals logs of its kind


def test_labeled_query_fields():
    out = TestOutcome(binary(1), 0.5, 0.05)
    lq = LabeledQuery(Query.ci(0, 1), out)
    assert lq.query == Query.ci(0, 1)
    assert lq.outcome is out


# --- path models --------------------------------------------------------------


def _gaussian_chain_dataset(rs, l, seed):
    n = len(rs) + 1
    cov = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = 1.0
            for t in range(i, j):
                r *= rs[t]
            cov[i, j] = cov[j, i] = r
    rng = np.random.default_rng(seed)
    return Dataset(rng.multivariate_normal(np.zeros(n), cov, size=l), tuple(range(n)))


def test_fit_path_two_variables():
    d = _gaussian_chain_dataset([0.6], 5000, seed=0)
    m = fit_path_model(d)
    assert sorted(m.order) == [0, 1]
    assert m.adjacent_corr[0] == pytest.approx(0.6, abs=0.05)


def test_fit_path_planted_chain_prediction():
    d = _gaussian_chain_dataset([0.5, 0.4], 10000, seed=1)
    m = fit_path_model(d)
    assert list(m.order) in ([0, 1, 2], [2, 1, 0])
    pred = path_corr(m, Query.unordered_pair(0, 2))
    assert abs(pred - 0.2) < 3 / np.sqrt(10000) + 0.05


def test_fit_path_recovery_monte_carlo():
    hits = 0
    for s in range(10):
        d = _gaussian_chain_dataset([0.8, 0.75, 0.8, 0.75], 10000, seed=s)
        m = fit_path_model(d)
        hits += list(m.order) in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])
    assert hits >= 9


def test_fit_path_needs_two_variables():
    with pytest.raises(InvalidSize):
        fit_path_model(Dataset(np.ones((5, 1)), (0,)))


def test_fit_path_zero_correlation():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ZeroCorrelation):
        fit_path_model(Dataset(np.column_stack([x, y]), (0, 1)))
