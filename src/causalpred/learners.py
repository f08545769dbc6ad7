"""Fit causal models from observed test outcomes.

PC as empirical risk minimization over conditional-independence tests,
polytree construction from bivariate additive-noise tests, and greedy
path-model estimation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Query, QueryKind, binary, check_nodes, check_universe, sample_queries
from .errors import DataError, InvalidSize, ZeroCorrelation

# d_separated and fisher_z_from_corr stay bound here for the benchmark's
# tracer; nothing here calls them
from .models import PathModel, Polytree, _Pdag, check_graph_size, d_separated, d_separated_many, forest_union
from .stattests import (
    VAR_EPS,
    TestOutcome,
    _fisher_z,
    anm_session,
    anm_test,
    correlation_matrix,
    fisher_z_from_corr,
    fisher_z_many,
)

# the most columns pc_fit takes: its level 0 tests all k(k-1)/2 pairs as
# arrays, growing as k^2.  On k independent standard-normal columns of
# 200 rows with max_cond 1, pc_fit peaked at 0.12 GB resident at
# k = 1000, 0.30 GB at this many and 0.99 GB at k = 4000 with alpha 0.001;
# with alpha 0.05, the CLI's default, it peaked at 0.37 GB at k = 1000 and
# 2.40 GB at this many (0.17 GB at k = 1000 with max_cond 0).
# `causalpred fit pc` holds no row per test, and peaked as pc_fit did on
# the same input
MAX_PC_NODES = 2000


@dataclass(frozen=True)
class LabeledQuery:
    """A query together with the test outcome observed for it."""

    query: Query
    outcome: TestOutcome


# --- PC -----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TestLog(Sequence):
    """The tests a learner was fitted on, in the order it ran them, as
    arrays: the query ``rows``, their 0/1 ``labels``, their ``p_values``
    (None when the tests give none), the tests' ``alpha`` and the rows'
    query ``kind``.  A COND_INDEP row (PC's) is (a, b, c1, ..., cs),
    padded with -1 as ``core.ci_query_array`` pads them; an ORDERED_PAIR
    row (the polytree learner's) is (source, target).  As a sequence it
    holds one LabeledQuery per test, built only when indexed; two logs are
    equal when all five fields are."""

    __test__ = False  # not a pytest test class despite the name

    rows: np.ndarray
    labels: np.ndarray
    p_values: np.ndarray = None
    alpha: float = None
    kind: QueryKind = QueryKind.COND_INDEP

    def __post_init__(self):
        for a in (self.rows, self.labels, self.p_values):
            if a is not None:
                a.setflags(write=False)

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        a, b, *cond = self.rows[i].tolist()
        p = None if self.p_values is None else float(self.p_values[i])
        outcome = TestOutcome(binary(int(self.labels[i])), p, self.alpha)
        return LabeledQuery(Query(self.kind, (a, b), tuple(c for c in cond if c != -1)), outcome)

    def __eq__(self, other):
        if not isinstance(other, TestLog):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.alpha == other.alpha
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.p_values, other.p_values)  # None equals only None
        )


def _join_levels(levels, alpha):
    """One TestLog from each level's (rows, labels, p-values) of the tests
    PC consulted there."""
    width = max((rows.shape[1] for rows, _, _ in levels if len(rows)), default=2)
    rows = np.full((sum(len(r) for r, _, _ in levels), width), -1, dtype=np.intp)
    start = 0
    for r, _, _ in levels:
        rows[start : start + len(r), : r.shape[1]] = r
        start += len(r)
    labels = np.concatenate([np.empty(0, dtype=np.int64)] + [lab for _, lab, _ in levels])
    p = None if not levels or levels[0][2] is None else np.concatenate([p for _, _, p in levels])
    return TestLog(rows, labels, p, alpha)


def pc_from_ci(n, label, max_cond, *, alpha=None, refuse=None):
    """Core PC skeleton + orientation phase driven by a batch CI labeller.

    Levels 0..min(max_cond, n - 2) scan the edges once each in lexicographic
    order (adjacency only shrinks, so a second scan would find every test
    already run).  At a level's start ``label(rows)`` takes the CI query
    rows (a, b, c1, ..., c_level) the scan may test, in its order, and
    returns two arrays over them: the labels, 1 for independence, 0 for
    dependence and -1 for a row its test cannot label, and the p-values,
    or None for tests that give none.  The scan consults a row only if its
    pair and set are still adjacent when it reaches it; a consulted row
    labelled -1 is handed to ``refuse(row)``, which raises its error, so a
    row skipped never raises; level 0 consults every pair, in one array
    step.  The separating set recorded at deletion time drives v-structure
    orientation.  Returns the CPDAG and the TestLog of the consulted rows,
    in order, with ``alpha``.
    """
    if max_cond < 0:
        raise InvalidSize("max_cond must be nonnegative")
    adjacent = ~np.eye(n, dtype=bool)
    sepset = {}  # (a, b), a < b, -> the set that separated them above level 0
    levels = []
    rows = np.column_stack(np.triu_indices(n, 1))  # a pair's test alone decides it
    if len(rows):
        labels, p = label(rows)
        if (labels < 0).any():
            refuse(rows[np.argmax(labels < 0)])  # raises the first such row's error
        a, b = rows[labels == 1].T
        adjacent[a, b] = adjacent[b, a] = False
        levels.append((rows, labels, p))
    for level in range(1, min(max_cond, n - 2) + 1):
        neighbours = [np.flatnonzero(row).tolist() for row in adjacent]
        tests = [
            (a, b, cond)
            for a, b in np.argwhere(np.triu(adjacent)).tolist()
            for cond in combinations(neighbours[a], level)
            if b not in cond
        ]
        if not tests:  # no pair has enough neighbours, here or above
            break
        rows = np.array([(a, b, *cond) for a, b, cond in tests], dtype=np.intp)
        labels, p = label(rows)
        consulted = []
        cut = [set() for _ in range(n)]  # the neighbours each node lost at this level
        for i, ((a, b, cond), flag) in enumerate(zip(tests, labels.tolist())):
            if b in cut[a] or not cut[a].isdisjoint(cond):
                continue
            if flag < 0:
                refuse(rows[i])  # raises the row's error
            consulted.append(i)
            if flag == 1:
                adjacent[a, b] = adjacent[b, a] = False
                cut[a].add(b)
                cut[b].add(a)
                sepset[a, b] = cond
        levels.append((rows[consulted], labels[consulted], None if p is None else p[consulted]))
    pdag = _Pdag(n, undirected=np.argwhere(np.triu(adjacent)).tolist())
    # v-structures a -> c <- b of separated pairs with a common neighbour c,
    # in pair order, found by an exact float32 count of common neighbours
    for a, b in np.argwhere(np.triu((adjacent.astype(np.float32) @ adjacent > 0) & ~adjacent, 1)).tolist():
        for c in np.flatnonzero(adjacent[a] & adjacent[b]).tolist():
            if c not in sepset.get((a, b), ()):  # none: separated at level 0
                pdag.orient(a, c)
                pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag(), _join_levels(levels, alpha)


def _require_node_ids(d, who):
    k = len(d.columns)  # the learner's node v is the column of id v
    outside = [v for v in d.columns if not 0 <= v < k]
    if outside:
        raise DataError(f"{who} needs column ids 0..{k - 1} in some order; ids {outside} are outside")


def fisher_z_labeller(corr, l, alpha):
    """``pc_from_ci``'s ``label`` and ``refuse`` for Fisher-Z tests on a
    correlation matrix whose row and column v are node v's: the labels of
    ``_fisher_z``, -1 on a row that fails a guard, with its p-values, and
    the error ``fisher_z_many`` raises on a row.  ``label`` checks no row:
    it takes PC's own rows, or a universe ``models.ci_walks`` checked."""

    def label(rows):
        labels, p, fail = _fisher_z(corr, l, rows, alpha)
        labels[fail != 0] = -1
        return labels, p

    def refuse(row):
        fisher_z_many(corr, l, row[None], alpha)

    return label, refuse


def pc_fit(d, alpha, max_cond):
    """PC with Fisher-Z tests on the dataset's correlation matrix."""
    _require_node_ids(d, "PC")
    check_universe(len(d.columns), QueryKind.COND_INDEP)
    check_graph_size(len(d.columns))
    if len(d.columns) > MAX_PC_NODES:
        raise InvalidSize(f"PC on {len(d.columns)} columns; the limit is {MAX_PC_NODES} columns")
    pos = np.argsort(d.columns)
    corr = correlation_matrix(d)[np.ix_(pos, pos)]  # row and column v are now column id v's
    label, refuse = fisher_z_labeller(corr, d.l, alpha)
    return pc_from_ci(len(d.columns), label, max_cond, alpha=alpha, refuse=refuse)


def pc_oracle(g, max_cond):
    """PC driven by exact d-separation in a known graph (no data)."""
    return pc_from_ci(g.n, lambda rows: (d_separated_many(g, rows), None), max_cond)


# --- polytrees from ANM tests -------------------------------------------------


def polytree_from_anm(d, k, alpha, seed, tester=None):
    """Three-step polytree construction from bivariate additive-noise tests.

    1. test k ordered pairs drawn uniformly without replacement,
    2. add an edge per accepted test,
    3. while the skeleton has an undirected cycle, drop the cycle edge
       with the lowest residual-independence p-value.

    ``tester`` may replace the default ANM test, for cached or synthetic
    outcomes: it takes the drawn rows (source, target) of column ids and
    returns two arrays over them, as ``pc_from_ci``'s labeller does: the
    0/1 labels and the p-values.  The default runs the drawn pairs in
    sorted order in one ``anm_session(d)``, so when several would fail,
    the first in sorted order raises.  A column id past the graph node
    limit, then a negative one, is refused after the draw, before any
    test.  Returns the polytree and the ORDERED_PAIR TestLog of the drawn
    rows, in drawn order, with ``alpha``.
    """
    # the draw depends on the universe's length alone; position i of the
    # ordered pairs of column positions is (s, j + (j >= s)), s, j = divmod(i, c - 1)
    c = len(d.columns)
    source, target = np.divmod(sample_queries(range(c * (c - 1)), k, seed), c - 1)
    target += target >= source
    check_graph_size(max(d.columns) + 1)
    check_nodes(max(d.columns) + 1, min(d.columns))  # a negative id names no node
    rows = np.array(d.columns, dtype=np.intp)[np.column_stack([source, target])]
    if tester is None:
        labels, p = np.empty(k, dtype=np.int64), np.empty(k)
        pairs = rows.tolist()
        with anm_session(d):
            for i in sorted(range(k), key=pairs.__getitem__):
                out = anm_test(d, Query.ordered_pair(*pairs[i]), alpha)
                labels[i], p[i] = out.value.value, out.p_value
    else:
        labels, p = tester(rows)

    # Kruskal over the accepted edges, strongest first: (p-value, positional
    # edge) is a strict order, so this keeps the unique maximum spanning
    # forest, which is what repeatedly dropping the weakest edge on a cycle
    # leaves.
    accepted = np.flatnonzero(labels == 1)
    accepted = accepted[np.lexsort((target[accepted], source[accepted], p[accepted]))[::-1]]
    union = forest_union(c)
    edges = [rows[i] for i in accepted if union(source[i], target[i])]
    return Polytree(max(d.columns) + 1, edges), TestLog(rows, labels, p, alpha, QueryKind.ORDERED_PAIR)


# --- path models --------------------------------------------------------------


def fit_path_model(d):
    """Greedy chain construction from pairwise correlations.

    Starts from the strongest pair and repeatedly extends whichever chain
    end has the largest absolute correlation with an unused variable; a tie
    goes to the first column, then to the head.
    """
    _require_node_ids(d, "a path model")
    n = len(d.columns)
    check_universe(n, QueryKind.UNORDERED_PAIR)
    # the chain is a graph on n nodes; the correlation matrix is the one
    # k x k array, 8 bytes a cell: on 5 standard-normal rows a fit peaked at
    # 33 MB traced at k = 2,000 and 0.82 GB resident at the limit (1.60 GB
    # when |r| was held whole beside it)
    check_graph_size(n)
    corr = correlation_matrix(d)
    np.fill_diagonal(corr, 0.0)  # no later step reads the diagonal
    # the strongest pair, the first maximum of |r| off the diagonal in
    # row-major order: the larger of the signed extremes, the earlier on a tie
    hi, lo = int(np.argmax(corr)), int(np.argmin(corr))
    first = hi if (corr.flat[hi], lo) > (-corr.flat[lo], hi) else lo
    if abs(corr.flat[first]) <= VAR_EPS:
        raise ZeroCorrelation("all pairwise correlations vanish")
    a, b = divmod(first, n)
    chain = deque([int(a), int(b)])
    rest = np.delete(np.arange(n), (a, b))  # the unused columns, in order
    while len(rest):
        # argmax takes the first maximum in row-major order: the tie rule above
        scores = np.abs(corr[rest[:, None], (chain[0], chain[-1])])
        row, at_tail = divmod(int(np.argmax(scores)), 2)
        if scores[row, at_tail] <= VAR_EPS:
            raise ZeroCorrelation("chain extension correlation vanishes")
        v = int(rest[row])
        if at_tail:
            chain.append(v)
        else:
            chain.appendleft(v)
        rest = rest[rest != v]
    chain = list(chain)
    adjacent = corr[chain[:-1], chain[1:]].tolist()
    order = [d.columns[i] for i in chain]
    return PathModel(order, adjacent)
