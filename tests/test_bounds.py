import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalpred.bounds import (
    ModelClassId,
    all_dags,
    brute_force_vc_check,
    class_gap,
    count_queries,
    gap_binary,
    gap_real,
    min_training_sets,
    vc_upper_bound,
)
from causalpred.core import Query, QueryKind, check_universe, ci_query_array
from causalpred.errors import (
    InvalidN,
    InvalidParams,
    InvalidSize,
    NTooLarge,
    UnsupportedClass,
)
from causalpred.models import d_separated, d_separated_many, is_polytree_edges, q_dirpath
from oracles import enumerate_queries, exact_vc_dimension


# --- vc_upper_bound -----------------------------------------------------------


def test_vc_alldags_n10():
    assert vc_upper_bound(ModelClassId.ALL_DAGS, 10) == pytest.approx(
        10 * math.log2(10) + 45
    )
    assert vc_upper_bound(ModelClassId.ALL_DAGS, 10) == pytest.approx(78.22, abs=0.01)


def test_vc_polytrees_n8():
    assert vc_upper_bound(ModelClassId.POLYTREES, 8) == pytest.approx(32.0)


def test_vc_linear_classes():
    assert vc_upper_bound(ModelClassId.PATH_SIGN, 7) == 7.0
    # the directed-path class shares the ALL_DAGS log-cardinality bound
    assert vc_upper_bound(ModelClassId.DIRECTIONALITY, 7) == pytest.approx(
        7 * math.log2(7) + 21
    )
    assert vc_upper_bound(ModelClassId.PATH_CORR, 7) == 28.0


def test_vc_requires_two_nodes():
    with pytest.raises(InvalidN):
        vc_upper_bound(ModelClassId.ALL_DAGS, 1)


# --- gap formulas -------------------------------------------------------------


def test_gap_binary_hand_value():
    # 2 sqrt((10 (ln 200 + 1) - ln(1/90)) / 1000)
    inner = (10 * (math.log(200) + 1) - math.log(0.1 / 9)) / 1000
    assert gap_binary(10, 1000, 0.1) == pytest.approx(2 * math.sqrt(inner))
    assert gap_binary(10, 1000, 0.1) == pytest.approx(0.5196, abs=0.001)


def test_gap_binary_trivial_region():
    assert gap_binary(10, 5, 0.1) == 1.0
    assert gap_binary(100, 50, 0.1) == 1.0


def test_gap_binary_clamped_to_unit_interval():
    assert gap_binary(50, 30, 0.1) == 1.0


def test_gap_binary_monotonicity():
    assert gap_binary(10, 1000, 0.05) > gap_binary(10, 1000, 0.1)
    assert gap_binary(20, 1000, 0.1) > gap_binary(10, 1000, 0.1)
    assert gap_binary(10, 2000, 0.1) < gap_binary(10, 1000, 0.1)


def test_gap_real_hand_value():
    inner = (20 * (math.log(250) + 1) - math.log(0.1 / 4)) / 5000
    assert gap_real(20, 5000, 0.1, -1, 1) == pytest.approx(2 * math.sqrt(inner))
    assert gap_real(20, 5000, 0.1, -1, 1) == pytest.approx(0.327, abs=0.001)


def test_gap_real_trivial_and_errors():
    assert gap_real(10, 10, 0.1, 0, 1) == 1.0
    with pytest.raises(InvalidParams):
        gap_real(10, 100, 0.1, 1, 1)
    with pytest.raises(InvalidParams):
        gap_binary(10, 0, 0.1)
    with pytest.raises(InvalidParams):
        gap_binary(10, 100, 1.5)


@given(
    st.floats(0.5, 500),
    st.integers(1, 10**6),
    st.floats(0.001, 0.999),
)
def test_gap_binary_always_in_unit_interval(h, k, eta):
    g = gap_binary(h, k, eta)
    assert 0.0 <= g <= 1.0
    if 2 * k <= h:
        assert g == 1.0


@given(st.floats(0.5, 100), st.integers(1, 10**6), st.floats(0.01, 0.99))
def test_gap_real_bounded_by_width(h, k, eta):
    g = gap_real(h, k, eta, -1.0, 1.0)
    assert 0.0 <= g <= 2.0


# --- planner ------------------------------------------------------------------


def test_min_training_sets_is_tight():
    for c in (ModelClassId.POLYTREES, ModelClassId.PATH_SIGN):
        h = vc_upper_bound(c, 12)
        k = min_training_sets(c, 12, 0.1, 0.1)
        assert gap_binary(h, k, 0.1) <= 0.1
        assert gap_binary(h, k - 1, 0.1) > 0.1


@pytest.mark.parametrize("n, eps", [(4, 0.3), (10, 0.1), (25, 0.05)])
def test_min_training_sets_inverts_the_class_gap(n, eps):
    # binary classes invert gap_binary, as before; pathcorr inverts the
    # gap_real that `causalpred bound` reports for it
    for c in ModelClassId:
        h = vc_upper_bound(c, n)
        k = min_training_sets(c, n, eps, 0.1)
        if c == ModelClassId.PATH_CORR:
            before, at = (gap_real(h, j, 0.1, -1.0, 1.0) for j in (k - 1, k))
        else:
            before, at = (gap_binary(h, j, 0.1) for j in (k - 1, k))
        assert at <= eps < before, (c, k)
        assert class_gap(c, h, k, 0.1) == at


def test_min_training_sets_pathcorr_below_binary_budget():
    # plan --class pathcorr --n 10 --eps 0.1 used to give the binary gap's
    # 161772, where gap_real is already 0.0964
    k = min_training_sets(ModelClassId.PATH_CORR, 10, 0.1, 0.1)
    assert k < 161772
    assert gap_real(vc_upper_bound(ModelClassId.PATH_CORR, 10), 161772, 0.1, -1.0, 1.0) < 0.0965


def test_min_training_sets_monotone_in_n():
    ks = [min_training_sets(ModelClassId.POLYTREES, n, 0.1, 0.1) for n in (5, 10, 20, 40)]
    assert ks == sorted(ks)


def test_min_training_sets_bad_eps():
    with pytest.raises(InvalidParams):
        min_training_sets(ModelClassId.POLYTREES, 10, 0.0, 0.1)


# --- count_queries ------------------------------------------------------------


def test_count_queries_examples():
    assert count_queries(10, QueryKind.COND_INDEP, 1) == 360
    assert count_queries(3, QueryKind.UNORDERED_PAIR) == 3
    assert count_queries(5, QueryKind.ORDERED_PAIR) == 20


def test_count_queries_matches_enumeration():
    for n in (3, 4, 5):
        for cond in range(n - 1):
            assert count_queries(n, QueryKind.COND_INDEP, cond) == len(
                enumerate_queries(n, QueryKind.COND_INDEP, cond)
            )
        for kind in (QueryKind.UNORDERED_PAIR, QueryKind.ORDERED_PAIR):
            assert count_queries(n, kind) == len(enumerate_queries(n, kind))


def _refusal(fn, *args):
    try:
        fn(*args)
    except InvalidSize as exc:
        return str(exc)
    return None


def test_count_queries_refuses_what_the_reference_enumeration_refuses():
    # both through check_universe, the one check of a universe's arguments
    for n in range(-1, 5):
        for kind in (QueryKind.COND_INDEP, QueryKind.UNORDERED_PAIR, QueryKind.ORDERED_PAIR):
            for s in range(-1, 4):
                want = _refusal(enumerate_queries, n, kind, s)
                assert _refusal(check_universe, n, kind, s) == want
                assert _refusal(count_queries, n, kind, s) == want


def test_count_queries_errors():
    with pytest.raises(InvalidSize):
        count_queries(3, QueryKind.COND_INDEP, 5)
    with pytest.raises(InvalidSize):
        count_queries(3, QueryKind.ORDERED_TUPLE)


# --- exhaustive enumeration ---------------------------------------------------


def test_all_dags_counts():
    # labeled DAG counts: 1, 3, 25, 543
    assert len(all_dags(2)) == 3
    assert len(all_dags(3)) == 25
    assert len(all_dags(4)) == 543


def test_brute_force_alldags_n3_matches_markov_classes():
    assert brute_force_vc_check(ModelClassId.ALL_DAGS, 3) == 11


def test_brute_force_polytrees_subset_of_alldags():
    for n in (3, 4):
        assert brute_force_vc_check(ModelClassId.POLYTREES, n) <= brute_force_vc_check(
            ModelClassId.ALL_DAGS, n
        )


def test_brute_force_pathsign_distinct_functions():
    # s and -s give identical pairwise sign products, so the realized
    # count is 2^(n-1), not 2^n; the log2 still sits below the bound
    assert brute_force_vc_check(ModelClassId.PATH_SIGN, 3) == 4


def test_brute_force_log_cardinality_classes():
    # for these classes the bound is a log-cardinality bound, so the
    # distinct-function count must stay below 2^bound
    for n in (2, 3, 4):
        for c in (ModelClassId.ALL_DAGS, ModelClassId.POLYTREES, ModelClassId.PATH_SIGN):
            count = brute_force_vc_check(c, n)
            assert math.log2(count) <= vc_upper_bound(c, n), (c, n, count)


def test_brute_force_directionality_counts():
    # one function per labeled partial order (the transitive closures):
    # their log2 exceeds n - 1, so n - 1 is no log-cardinality bound
    assert brute_force_vc_check(ModelClassId.DIRECTIONALITY, 2) == 3
    assert brute_force_vc_check(ModelClassId.DIRECTIONALITY, 3) == 19


def test_directionality_shatters_sources_times_sinks():
    # with sources {0, 2} and sinks {1, 3} every subset of the four pairs
    # is its own edge set and no path is longer than one edge, so
    # q_dirpath realizes all 16 labelings: VC dimension 4 > n - 1 = 3
    pairs = [Query.ordered_pair(i, j) for i in (0, 2) for j in (1, 3)]
    labelings = {tuple(q_dirpath(g, q) for q in pairs) for g in all_dags(4)}
    assert len(labelings) == 16
    # the bound must cover the floor(n/2) * ceil(n/2) shattered pairs
    for n in range(2, 51):
        assert vc_upper_bound(ModelClassId.DIRECTIONALITY, n) >= (n // 2) * ((n + 1) // 2)


@pytest.mark.parametrize(
    "n, c, count, vc",
    [(3, ModelClassId.ALL_DAGS, 11, 3), (4, ModelClassId.ALL_DAGS, 137, 5), (4, ModelClassId.POLYTREES, 90, 5)],
)
def test_exact_vc_dimension_on_the_order_0_1_ci_universe(n, c, count, vc):
    # the largest query set the class shatters on the universe the CI
    # experiments score, under the log2 of its function count and the bound
    # h the overlays use (2.8 and 2.4 times the exact VC at n = 4)
    queries = ci_query_array(n, (0, 1))
    dags = [g for g in all_dags(n) if c == ModelClassId.ALL_DAGS or is_polytree_edges(n, g.edges)]
    functions = {tuple(d_separated_many(g, queries)) for g in dags}
    assert (len(functions), exact_vc_dimension(list(functions))) == (count, vc)
    assert vc <= math.log2(count) <= vc_upper_bound(c, n)


def test_all_dags_skips_only_cyclic_graphs(monkeypatch):
    # a directed cycle is a GraphError and is skipped; any other error of
    # the graph constructor is a fault and propagates
    from causalpred import bounds

    def broken(n, edges):
        raise ValueError("not a graph error")

    monkeypatch.setattr(bounds, "Dag", broken)
    with pytest.raises(ValueError, match="not a graph error"):
        all_dags(2)


def test_brute_force_counts_equal_the_scalar_d_separation_loop():
    # the batch rows give the functions one scalar call per query gives
    for c, n in itertools.product((ModelClassId.ALL_DAGS, ModelClassId.POLYTREES), (2, 3, 4)):
        if (c, n) != (ModelClassId.ALL_DAGS, 4):  # 543 DAGs: criterion 2 counts them
            queries = [q for s in range(n - 1) for q in enumerate_queries(n, QueryKind.COND_INDEP, s)]
            dags = [g for g in all_dags(n) if c == ModelClassId.ALL_DAGS or is_polytree_edges(n, g.edges)]
            functions = {tuple(d_separated(g, q) for q in queries) for g in dags}
            assert brute_force_vc_check(c, n) == len(functions)


def test_brute_force_limits():
    with pytest.raises(NTooLarge):
        brute_force_vc_check(ModelClassId.ALL_DAGS, 5)
    with pytest.raises(UnsupportedClass):
        brute_force_vc_check(ModelClassId.PATH_CORR, 3)


def test_polytree_markov_classes_per_skeleton():
    # orientations of a fixed tree skeleton fall into at most
    # 2^(n-1) - n + 1 Markov classes
    for n in (3, 4):
        queries = []
        for cond_size in range(n - 1):
            queries.extend(enumerate_queries(n, QueryKind.COND_INDEP, cond_size))
        by_skeleton = {}
        for g in all_dags(n):
            if not is_polytree_edges(n, g.edges):
                continue
            fn = tuple(d_separated(g, q) for q in queries)
            by_skeleton.setdefault(g.skeleton(), set()).add(fn)
        bound = 2 ** (n - 1) - n + 1
        for skel, classes in by_skeleton.items():
            if len(skel) == n - 1:  # spanning trees only
                assert len(classes) <= bound, (skel, len(classes))
