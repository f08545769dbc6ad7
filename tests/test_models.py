import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpred.core import Query, ci_rows
from causalpred.errors import (
    GraphError,
    InvalidSize,
    MarginalMismatch,
    NonPsdInput,
    UnknownNode,
    ZeroCorrelation,
)
from causalpred.models import (
    Cpdag,
    Dag,
    PathModel,
    Polytree,
    anm_polytree_many,
    cpdag_from_dag,
    d_connection_rows,
    d_separated,
    d_separated_many,
    forest_union,
    glue_gaussian_chain,
    load_model,
    model_from_json,
    model_to_json,
    path_corr,
    path_sign,
    q_anm_polytree,
    q_dirpath,
    q_lingam_admissible,
    random_dag_from_cpdag,
    save_model,
    v_structures,
)
from oracles import (
    closure_has_path,
    d_connected,
    is_polytree,
    markov_equivalent,
    moral_d_separated,
    random_dag,
    ref_ancestors,
    ref_cpdag_from_dag,
    ref_has_path,
    ref_random_dag_from_cpdag,
    scan_children,
    scan_parents,
)

CHAIN = Dag(3, [(0, 1), (1, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])


# --- graph construction -------------------------------------------------------


def test_dag_rejects_cycles_and_self_loops():
    with pytest.raises(GraphError):
        Dag(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Dag(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError):
        Dag(2, [(0, 0)])
    with pytest.raises(UnknownNode):
        Dag(2, [(0, 5)])


@st.composite
def _dag_edges(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    return n, draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []


@given(_dag_edges())
def test_dag_adjacency_matches_edge_scan(case):
    n, edges = case
    g = Dag(n, edges)
    for v in range(n):
        assert g.parents(v) == scan_parents(g, v)
        assert g.children(v) == scan_children(g, v)
        assert isinstance(g.parents(v), frozenset) and isinstance(g.children(v), frozenset)


@given(_dag_edges())
def test_dag_equality_hash_and_repr_see_only_n_and_edges(case):
    n, edges = case
    g, h = Dag(n, edges), Dag(n, list(reversed(edges)))
    assert g == h and hash(g) == hash(h) == hash((n, frozenset(edges)))
    assert repr(g) == f"Dag(n={n}, edges={g.edges!r})"
    if edges:
        assert g != Dag(n, edges[1:])
    assert Polytree(2, [(0, 1)]) != Dag(2, [(0, 1)])


def test_polytree_rejects_undirected_cycle():
    with pytest.raises(GraphError):
        Polytree(3, [(0, 1), (0, 2), (1, 2)])
    assert is_polytree(CHAIN) == 1
    assert is_polytree(Dag(3, [(0, 1), (0, 2), (1, 2)])) == 0


def test_forest_union_rejects_edges_inside_a_tree():
    union = forest_union(4)
    assert union(0, 1) and union(2, 3)
    assert not union(1, 0)  # the reverse direction is the same undirected edge
    assert union(1, 2)
    assert not union(0, 3)


def test_cpdag_rejects_conflicts():
    with pytest.raises(GraphError):
        Cpdag(3, [(0, 1)], [(0, 1)])
    with pytest.raises(GraphError):
        Cpdag(3, [(0, 1), (1, 0)], [])


@pytest.mark.parametrize("undirected", [[(0, 0)], [(5, 7)], [(0, 1), (2, 3)], [(-1, 2)]])
def test_cpdag_rejects_bad_undirected_edges(undirected):
    # refused like a bad directed edge, before random_dag_from_cpdag could
    # reach the pair
    with pytest.raises(GraphError, match="bad undirected edge"):
        Cpdag(3, [], undirected)


def test_path_model_validation():
    m = PathModel((2, 0, 1), (0.5, -0.4))
    assert m.n == 3
    assert m.position(0) == 1
    with pytest.raises(GraphError):
        PathModel((0, 0, 1), (0.5, 0.5))
    with pytest.raises(InvalidSize):
        PathModel((0, 1, 2), (0.5,))
    with pytest.raises(InvalidSize):
        PathModel((0, 1), (1.0,))
    with pytest.raises(ZeroCorrelation):
        PathModel((0, 1), (0.0,))


# --- d-separation -------------------------------------------------------------


def test_d_separated_chain():
    assert d_separated(CHAIN, Query.ci(0, 2, (1,))) == 1
    assert d_separated(CHAIN, Query.ci(0, 2)) == 0


def test_d_separated_collider():
    assert d_separated(COLLIDER, Query.ci(0, 1, (2,))) == 0
    assert d_separated(COLLIDER, Query.ci(0, 1)) == 1


def test_d_separated_descendant_of_collider_opens_path():
    g = Dag(4, [(0, 2), (1, 2), (2, 3)])
    assert d_separated(g, Query.ci(0, 1, (3,))) == 0


def test_d_separated_matches_moral_oracle_small_sweep():
    for seed in range(40):
        n = 3 + seed % 4
        g = random_dag(n, seed)
        for a, b in itertools.combinations(range(n), 2):
            rest = [v for v in range(n) if v not in (a, b)]
            for size in range(min(2, len(rest)) + 1):
                for cond in itertools.combinations(rest, size):
                    got = d_separated(g, Query.ci(a, b, cond))
                    want = moral_d_separated(g, a, b, set(cond))
                    assert got == want, (g.edges, a, b, cond)


def test_d_separated_wrong_kind():
    with pytest.raises(InvalidSize):
        d_separated(CHAIN, Query.ordered_pair(0, 1))
    with pytest.raises(UnknownNode):
        d_separated(CHAIN, Query.ci(0, 5))


@st.composite
def _graph_and_ci_queries(draw):
    """A random DAG and a list of CI queries in mixed order, with
    duplicates and conditioning sets of size 0 to 3."""
    n = draw(st.integers(2, 8))
    g = random_dag(n, draw(st.integers(0, 2**32 - 1)), p=draw(st.sampled_from([0.2, 0.4, 0.7])))
    drawn = st.tuples(st.permutations(range(n)), st.integers(0, min(3, n - 2)))
    queries = [Query.ci(p[0], p[1], p[2 : 2 + k]) for p, k in draw(st.lists(drawn, max_size=40))]
    if queries:
        queries += draw(st.lists(st.sampled_from(queries), max_size=10))
    return g, draw(st.permutations(queries))


@settings(max_examples=200, deadline=None)
@given(_graph_and_ci_queries())
def test_d_separated_many_matches_scalar_and_moral_oracle(case):
    g, queries = case
    got = d_separated_many(g, ci_rows(queries))
    assert got.shape == (len(queries),)
    assert got.tolist() == [d_separated(g, q) for q in queries]
    assert got.tolist() == [moral_d_separated(g, *q.members, set(q.cond)) for q in queries]
    # the same sets in any order, with more padding at the end
    rows = np.pad(ci_rows(queries), ((0, 0), (0, 1)), constant_values=-1)
    rng = np.random.default_rng(len(queries))
    for row in rows:
        end = 2 + np.count_nonzero(row[2:] != -1)
        row[2:end] = rng.permutation(row[2:end])
    assert np.array_equal(d_separated_many(g, rows), got)


@st.composite
def _graph_and_conditioning_sets(draw):
    """A random DAG on at most 10 nodes and a few conditioning sets of size
    0 to 3, each row in random order and padded with -1 at random places."""
    n = draw(st.integers(1, 10))
    g = random_dag(n, draw(st.integers(0, 2**32 - 1)), p=draw(st.sampled_from([0.15, 0.3, 0.6])))
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3, unique=True), min_size=1, max_size=6))
    width = max(map(len, sets)) + draw(st.integers(0, 2))
    rows = [draw(st.permutations(z + [-1] * (width - len(z)))) for z in sets]
    return g, sets, np.array(rows, dtype=np.intp).reshape(len(sets), width)


@settings(max_examples=300, deadline=None)
@given(_graph_and_conditioning_sets())
def test_d_connection_rows_match_bayes_ball_and_moral_oracle(case):
    g, sets, rows = case
    sources = np.tile(np.arange(g.n), len(sets))
    connected = d_connection_rows(g, sources, np.repeat(rows, g.n, axis=0))
    assert connected.shape == (len(sets) * g.n, g.n) and connected.dtype == bool
    for i, z in enumerate(sets):
        table = connected[i * g.n : (i + 1) * g.n]
        assert np.array_equal(d_connection_rows(g, np.arange(g.n), rows[i : i + 1]), table)
        for x in range(g.n):
            assert set(np.flatnonzero(table[x]).tolist()) == (d_connected(g, x, z) - set(z))
            for y in range(g.n):
                if x != y and x not in z and y not in z:
                    assert table[x, y] != moral_d_separated(g, x, y, set(z)), (sorted(g.edges), x, y, z)


def test_d_connection_rows_refuse_bad_shapes_and_nodes():
    with pytest.raises(UnknownNode):
        d_connection_rows(CHAIN, [0], [[3]])
    with pytest.raises(UnknownNode):
        d_connection_rows(CHAIN, [0], [[0, -2]])
    with pytest.raises(UnknownNode):
        d_connection_rows(CHAIN, [3], [[-1]])
    with pytest.raises(UnknownNode):
        d_connection_rows(CHAIN, [-1], [[]])
    with pytest.raises(InvalidSize):
        d_connection_rows(CHAIN, [0, 1], [0, 1])
    with pytest.raises(InvalidSize):
        d_connection_rows(CHAIN, [0, 1, 2], [[0], [1]])
    assert d_connection_rows(CHAIN, [], [[]]).shape == (0, 3)
    assert d_connection_rows(Dag(0, []), [], np.empty((0, 2), dtype=int)).shape == (0, 0)


def test_d_separation_on_long_chains_and_wide_graphs():
    # a trail that crosses thousands of nodes, as `predict ci:` asks of the
    # chain a path model implies; the work grows with nodes plus edges
    n = 4000
    chain = Dag(n, [(v, v + 1) for v in range(n - 1)])
    assert d_separated(chain, Query.ci(0, n - 1, ())) == 0
    assert d_separated(chain, Query.ci(0, n - 1, (n // 2,))) == 1
    assert d_separated(chain, Query.ci(n - 1, 0, (1, n - 2))) == 1
    collider = Dag(n, [(0, 1), (n - 1, 1)] + [(v, v + 1) for v in range(1, n - 2)])
    assert d_separated(collider, Query.ci(0, n - 1, ())) == 1
    assert d_separated(collider, Query.ci(0, n - 1, (n - 2,))) == 0  # a descendant opens it
    g = random_dag(300, 5, p=0.01)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y, *z = rng.choice(300, 4, replace=False).tolist()
        assert d_separated(g, Query.ci(x, y, z)) == moral_d_separated(g, x, y, set(z))


@settings(max_examples=100, deadline=None)
@given(_graph_and_ci_queries())
def test_d_connected_is_the_set_the_moral_oracle_connects(case):
    # the reference Bayes ball that pins the kernel, against the moral graph
    g, queries = case
    for q in queries[:5]:
        x, z = q.members[0], set(q.cond)
        want = {x} | {v for v in range(g.n) if v not in z | {x} and not moral_d_separated(g, x, v, z)}
        assert d_connected(g, x, z) == want


def _scalar_row(g, row):
    """``d_separated`` on the query of one row; a bad row raises there or
    when its Query is built."""
    a, b, *cond = row
    return d_separated(g, Query.ci(a, b, [c for c in cond if c != -1]))


@given(_graph_and_ci_queries(), st.data())
def test_d_separated_many_raises_the_scalar_error_of_the_first_bad_query(case, data):
    g, queries = case
    n = g.n
    rows = [list(q.members) + list(q.cond) + [-1] * (3 - len(q.cond)) for q in queries]
    bad = [[0, n, -1, -1, -1], [0, 1, n + 1, -1, -1], [n + 2, 0, -1, -1, -1], [0, 0, -1, -1, -1],
           [0, 1, 1, -1, -1], [1, 0, -1, 2, 2], [0, 1, -2, -1, -1], [-1, 0, -1, -1, -1]]
    for row in data.draw(st.lists(st.sampled_from(bad), min_size=1, max_size=3)):
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    first = next(row for row in rows if row in bad)
    with pytest.raises((InvalidSize, UnknownNode)) as want:
        _scalar_row(g, first)
    with pytest.raises(type(want.value)) as got:
        d_separated_many(g, np.array(rows))
    assert str(got.value) == str(want.value)


def test_d_separated_many_of_no_queries():
    assert d_separated_many(CHAIN, ci_rows([])).shape == (0,)
    assert d_separated_many(CHAIN, np.empty((0, 3), dtype=int)).shape == (0,)
    with pytest.raises(InvalidSize):
        d_separated_many(CHAIN, [0, 2])


# --- directed paths -----------------------------------------------------------


def test_dirpath_chain():
    assert q_dirpath(CHAIN, Query.ordered_pair(0, 2)) == 1
    assert q_dirpath(CHAIN, Query.ordered_pair(2, 0)) == 0


def test_dirpath_edgeless():
    g = Dag(3, [])
    for a, b in itertools.permutations(range(3), 2):
        assert q_dirpath(g, Query.ordered_pair(a, b)) == 0


def test_dirpath_matches_closure_oracle():
    g = random_dag(8, seed=13)
    for i, j in itertools.permutations(range(8), 2):
        assert q_dirpath(g, Query.ordered_pair(i, j)) == int(closure_has_path(g, i, j))


# --- polytree edge predictor --------------------------------------------------


def test_anm_polytree_edges():
    t = Polytree(3, [(0, 1), (1, 2)])
    assert q_anm_polytree(t, Query.ordered_pair(0, 1)) == 1
    assert q_anm_polytree(t, Query.ordered_pair(1, 0)) == 0
    assert q_anm_polytree(t, Query.ordered_pair(0, 2)) == 0


@given(_dag_edges(), st.data())
def test_anm_polytree_many_is_edge_membership(case, data):
    n, edges = case
    union = forest_union(n)
    t = Polytree(n, [e for e in edges if union(*e)])
    pairs = data.draw(st.permutations(list(itertools.permutations(range(n), 2))))
    got = anm_polytree_many(t, np.array(pairs, dtype=np.intp).reshape(-1, 2))
    assert got.tolist() == [int(p in t.edges) for p in pairs]
    assert got.tolist() == [q_anm_polytree(t, Query.ordered_pair(*p)) for p in pairs]
    with pytest.raises(UnknownNode, match=f"node {n + 1} "):
        anm_polytree_many(t, pairs + [(0, n + 1), (n + 2, 0)])


# --- linear-model admissibility -----------------------------------------------


def test_lingam_fork_pair_confounded():
    assert q_lingam_admissible(FORK, Query.ordered_tuple(1, 2)) == 0


def test_lingam_chain_order_inconsistent():
    assert q_lingam_admissible(CHAIN, Query.ordered_tuple(2, 0, 1)) == 0


def test_lingam_chain_full_order_admissible():
    # under the adopted reading, tuple members do not count as confounders
    assert q_lingam_admissible(CHAIN, Query.ordered_tuple(0, 1, 2)) == 1


def test_lingam_hidden_confounder():
    g = Dag(4, [(3, 0), (3, 1), (1, 2)])
    # 3 confounds both (0, 1) and, through 1, the pair (1, 2)
    assert q_lingam_admissible(g, Query.ordered_tuple(0, 1)) == 0
    assert q_lingam_admissible(g, Query.ordered_tuple(1, 2)) == 0
    assert q_lingam_admissible(g, Query.ordered_tuple(3, 1)) == 1


# --- path-model predictions ---------------------------------------------------


def test_path_corr_product():
    m = PathModel((0, 1, 2), (0.5, 0.4))
    assert path_corr(m, Query.unordered_pair(0, 2)) == pytest.approx(0.2)
    assert path_corr(m, Query.unordered_pair(0, 1)) == pytest.approx(0.5)


def test_path_corr_signed_product():
    m = PathModel((0, 1, 2), (-0.5, 0.4))
    assert path_corr(m, Query.unordered_pair(0, 2)) == pytest.approx(-0.2)


def test_path_sign_values():
    m = PathModel((0, 1, 2), (-0.5, 0.4))
    assert path_sign(m, Query.unordered_pair(0, 1)) == -1
    assert path_sign(m, Query.unordered_pair(1, 2)) == 1
    assert path_sign(m, Query.unordered_pair(0, 2)) == -1


@given(
    st.lists(
        st.floats(0.05, 0.95).flatmap(lambda r: st.sampled_from([r, -r])),
        min_size=2,
        max_size=6,
    )
)
def test_path_corr_composition_law(rs):
    # corr(a, c) = corr(a, b) * corr(b, c) for b between a and c
    n = len(rs) + 1
    m = PathModel(tuple(range(n)), tuple(rs))
    a, b, c = 0, n // 2, n - 1
    full = path_corr(m, Query.unordered_pair(a, c))
    if a != b and b != c:
        left = path_corr(m, Query.unordered_pair(a, b))
        right = path_corr(m, Query.unordered_pair(b, c))
        assert full == pytest.approx(left * right)


# --- Markov equivalence -------------------------------------------------------


def test_markov_equivalent_examples():
    assert markov_equivalent(CHAIN, Dag(3, [(2, 1), (1, 0)])) == 1
    assert markov_equivalent(Dag(3, [(0, 1), (2, 1)]), CHAIN) == 0
    # the fork with the chain's skeleton sits in the chain's class
    assert markov_equivalent(CHAIN, Dag(3, [(1, 0), (1, 2)])) == 1
    # FORK has a different skeleton
    assert markov_equivalent(CHAIN, FORK) == 0


def test_v_structures():
    assert v_structures(COLLIDER) == {(0, 2, 1)}
    assert v_structures(CHAIN) == set()
    # shielded collider is not a v-structure
    g = Dag(3, [(0, 2), (1, 2), (0, 1)])
    assert v_structures(g) == set()


def _all_dags_3():
    from causalpred.bounds import all_dags

    return all_dags(3)


def test_exhaustive_n3_markov_classes():
    dags = _all_dags_3()
    assert len(dags) == 25
    # classes by pairwise equivalence must agree with d-separation functions
    queries = []
    for a, b in itertools.combinations(range(3), 2):
        rest = [v for v in range(3) if v not in (a, b)]
        queries.append(Query.ci(a, b))
        queries.append(Query.ci(a, b, tuple(rest)))
    reps = []
    for g in dags:
        fn = tuple(d_separated(g, q) for q in queries)
        for rep, rep_fn in reps:
            equiv = markov_equivalent(g, rep)
            assert equiv == int(fn == rep_fn), (g.edges, rep.edges)
            if equiv:
                break
        else:
            reps.append((g, fn))
    assert len(reps) == 11


def test_markov_equivalence_is_an_equivalence_relation():
    dags = _all_dags_3()[:12]
    for g in dags:
        assert markov_equivalent(g, g) == 1
    for g1, g2 in itertools.combinations(dags, 2):
        assert markov_equivalent(g1, g2) == markov_equivalent(g2, g1)


# --- CPDAG machinery ----------------------------------------------------------


def test_cpdag_from_dag_chain_and_collider():
    c = cpdag_from_dag(CHAIN)
    assert c.directed == frozenset()
    assert c.undirected == frozenset({frozenset((0, 1)), frozenset((1, 2))})
    c2 = cpdag_from_dag(COLLIDER)
    assert c2.directed == frozenset({(0, 2), (1, 2)})
    assert c2.undirected == frozenset()


def test_random_extension_identity_on_directed_cpdag():
    c = Cpdag(3, [(0, 1), (1, 2)], [])
    g = random_dag_from_cpdag(c, seed=0)
    assert g.edges == CHAIN.edges


def test_random_extension_chain_class_coverage():
    c = cpdag_from_dag(CHAIN)
    allowed = {
        frozenset({(0, 1), (1, 2)}),
        frozenset({(1, 0), (1, 2)}),
        frozenset({(1, 0), (2, 1)}),
    }
    seen = set()
    for s in range(3000):
        g = random_dag_from_cpdag(c, s)
        key = frozenset(g.edges)
        assert key in allowed  # never the collider
        seen.add(key)
    assert seen == allowed


def test_random_extension_stays_in_markov_class():
    for seed in range(30):
        g = random_dag(5, seed, p=0.4)
        c = cpdag_from_dag(g)
        ext = random_dag_from_cpdag(c, seed + 1000)
        assert markov_equivalent(g, ext) == 1


@settings(max_examples=300, deadline=None)
@given(_dag_edges())
def test_cpdag_from_dag_matches_edge_set_reference(case):
    g = Dag(*case)
    assert cpdag_from_dag(g) == ref_cpdag_from_dag(g)


@st.composite
def _mixed_pdags(draw, max_n=9):
    """A CPDAG-shaped graph whose directed part is acyclic and whose pairs
    are each directed along a random order, undirected or absent: most are
    not the CPDAG of any DAG, and some have no consistent extension."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    directed, undirected = [], []
    for i, j in itertools.combinations(range(n), 2):
        kind = draw(st.sampled_from(["directed", "undirected", "absent"]))
        if kind == "directed":
            directed.append((order[i], order[j]))
        elif kind == "undirected":
            undirected.append((order[i], order[j]))
    return Cpdag(n, directed, undirected)


@settings(max_examples=300, deadline=None)
@given(_mixed_pdags(), st.integers(0, 2**32 - 1))
def test_random_extension_matches_edge_set_reference(c, seed):
    for s in (seed, seed + 1, seed + 2):
        assert random_dag_from_cpdag(c, s) == ref_random_dag_from_cpdag(c, s)


@given(_dag_edges())
def test_ancestors_and_has_path_match_reference_walks(case):
    g = Dag(*case)
    for v in range(g.n):
        assert g.ancestors(v) == ref_ancestors(g, v)
        for w in range(g.n):
            assert g.has_path(v, w) == ref_has_path(g, v, w)


# --- Gaussian chain gluing ----------------------------------------------------


def test_glue_example():
    out = glue_gaussian_chain([[1, 0.5], [0.5, 1]], [[1, 0.4], [0.4, 1]])
    expected = np.array([[1, 0.5, 0.2], [0.5, 1, 0.4], [0.2, 0.4, 1]])
    assert np.allclose(out, expected)
    assert out[0, 0] == 1.0 and out[1, 1] == 1.0 and out[2, 2] == 1.0
    assert out[0, 1] == 0.5 and out[1, 2] == 0.4


def test_glue_zero_correlation():
    out = glue_gaussian_chain([[1, 0.0], [0.0, 1]], [[1, 0.4], [0.4, 1]])
    assert out[0, 2] == 0.0


def test_glue_marginal_mismatch():
    with pytest.raises(MarginalMismatch):
        glue_gaussian_chain([[1, 0.5], [0.5, 1]], [[2, 0.4], [0.4, 1]])


def test_glue_bad_inputs():
    with pytest.raises(NonPsdInput):
        glue_gaussian_chain([[1, 2], [2, 1]], [[1, 0.4], [0.4, 1]])
    with pytest.raises(InvalidSize):
        glue_gaussian_chain(np.eye(3), np.eye(2))


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_glue_output_always_psd(r1, r2):
    out = glue_gaussian_chain([[1, r1], [r1, 1]], [[1, r2], [r2, 1]])
    assert np.linalg.eigvalsh(out).min() >= -1e-9
    assert out[0, 2] == pytest.approx(r1 * r2)


# --- serialization ------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        CHAIN,
        Polytree(3, [(0, 1), (1, 2)]),
        Cpdag(3, [(0, 2)], [(0, 1)]),
        PathModel((2, 0, 1), (0.5, -0.4)),
    ],
)
def test_json_roundtrip(model, tmp_path):
    back = model_from_json(model_to_json(model))
    assert type(back) is type(model)
    assert model_to_json(back) == model_to_json(model)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert model_to_json(load_model(path)) == model_to_json(model)
