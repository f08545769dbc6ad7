"""Fit causal models from observed test outcomes.

PC as empirical risk minimization over conditional-independence tests,
polytree construction from bivariate additive-noise tests, and greedy
path-model estimation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Query, QueryKind, binary, ci_query_array, sample_queries
from .errors import DataError, InvalidSize, ZeroCorrelation

# d_separated and fisher_z_from_corr stay bound here for the benchmark's
# tracer; nothing here calls them
from .models import PathModel, Polytree, _Pdag, d_separated, d_separated_many, forest_union
from .stattests import (
    VAR_EPS,
    TestOutcome,
    _fisher_z,
    _require_alpha,
    anm_test,
    correlation_matrix,
    fisher_z_from_corr,
    fisher_z_many,
)
from .synthgen import sample


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
    row skipped never raises.  The separating set recorded at deletion
    time drives v-structure orientation.  Returns the CPDAG and the
    TestLog of the consulted rows, in order, with ``alpha``.
    """
    if max_cond < 0:
        raise InvalidSize("max_cond must be nonnegative")
    adjacency = {v: set(range(n)) - {v} for v in range(n)}
    sepset = {}  # (a, b), a < b, -> the conditioning set that separated them
    levels = []
    for level in range(min(max_cond, n - 2) + 1):
        tests = [
            (a, b, cond)
            for a, b in combinations(range(n), 2)
            if b in adjacency[a]
            for cond in combinations(sorted(adjacency[a] - {b}), level)
        ]
        if not tests:  # no pair has enough neighbours, here or above
            break
        rows = np.array([(a, b, *cond) for a, b, cond in tests], dtype=np.intp)
        labels, p = label(rows)
        consulted = []
        for i, ((a, b, cond), flag) in enumerate(zip(tests, labels.tolist())):
            if b not in adjacency[a] or not adjacency[a].issuperset(cond):
                continue
            if flag < 0:
                refuse(rows[i])  # raises the row's error
            consulted.append(i)
            if flag == 1:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
                sepset[a, b] = cond
        levels.append((rows[consulted], labels[consulted], None if p is None else p[consulted]))
    pdag = _Pdag(n, undirected=[(a, b) for a, b in combinations(range(n), 2) if b in adjacency[a]])
    # v-structures a -> c <- b from each separated pair's set, in pair order
    for (a, b), cond in sorted(sepset.items()):
        for c in sorted(adjacency[a] & adjacency[b]):
            if c not in cond:
                pdag.orient(a, c)
                pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag(), _join_levels(levels, alpha)


def _require_node_ids(d, who):
    k = len(d.columns)  # the learner's node v is the column of id v
    outside = [v for v in d.columns if not 0 <= v < k]
    if outside:
        raise DataError(f"{who} needs column ids 0..{k - 1} in some order; ids {outside} are outside")


def pc_fit(d, alpha, max_cond, *, corr=None):
    """PC with Fisher-Z tests on the dataset's correlation matrix, or on
    ``corr`` when the caller has already built it."""
    _require_node_ids(d, "PC")
    if len(d.columns) < 2:
        raise InvalidSize("need at least two variables")
    if corr is None:
        corr = correlation_matrix(d)
    pos = np.argsort(d.columns)
    corr = corr[np.ix_(pos, pos)]  # row and column v are now column id v's

    def label(rows):
        labels, p, fail = _fisher_z(corr, d.l, rows, alpha)
        labels[fail != 0] = -1
        return labels, p

    def refuse(row):
        fisher_z_many(corr, d.l, row[None], alpha)

    return pc_from_ci(len(d.columns), label, max_cond, alpha=alpha, refuse=refuse)


def pc_oracle(g, max_cond):
    """PC driven by exact d-separation in a known graph (no data)."""
    return pc_from_ci(g.n, lambda rows: (d_separated_many(g, rows), None), max_cond)


# --- confidence-level selection -----------------------------------------------


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def select_alpha(candidates, scms, l, seed=0):
    """Pick the test confidence level with the best mean F1 of predicted
    dependence against d-separation ground truth, over marginal and
    one-variable-conditioned queries; ties go to the smaller alpha.  Every
    candidate is checked, and ``scms`` must not be empty, before any
    sample is drawn."""
    if not candidates:
        raise InvalidSize("need at least one candidate alpha")
    for alpha in candidates:
        _require_alpha(alpha)
    if not scms:
        raise InvalidSize("need at least one SCM")
    scores = {a: [] for a in candidates}
    for idx, scm in enumerate(scms):
        data = sample(scm, l, seed + idx).dataset
        g = scm.dag()
        corr = correlation_matrix(data)
        queries = ci_query_array(g.n, (0, 1))
        true_dep = d_separated_many(g, queries) == 0
        p = fisher_z_many(corr, l, queries, candidates[0])[1]
        for alpha in candidates:
            predicted_dep = p <= alpha  # label 0: p is never NaN here
            tp = int(np.count_nonzero(predicted_dep & true_dep))
            fp = int(np.count_nonzero(predicted_dep & ~true_dep))
            fn = int(np.count_nonzero(~predicted_dep & true_dep))
            scores[alpha].append(_f1(tp, fp, fn))
    means = {a: float(np.mean(s)) for a, s in scores.items()}
    best = max(means.values())
    return min(a for a in candidates if means[a] == best)


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
    0/1 labels and the p-values.  The default runs the drawn pairs source
    by source, in sorted order, since ``anm_test`` keeps the last source's
    Gram and ridge factor; so when several pairs would fail, the first of
    them in sorted order raises.  Returns the polytree and the
    ORDERED_PAIR TestLog of the drawn rows, in drawn order, with ``alpha``.
    """
    # the draw depends on the universe's length alone; position i of the
    # ordered pairs of column positions is (s, j + (j >= s)), s, j = divmod(i, c - 1)
    c = len(d.columns)
    source, target = np.divmod(sample_queries(range(c * (c - 1)), k, seed), c - 1)
    target += target >= source
    rows = np.array(d.columns, dtype=np.intp)[np.column_stack([source, target])]
    if tester is None:
        labels, p = np.empty(k, dtype=np.int64), np.empty(k)
        pairs = rows.tolist()
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
    end has the largest absolute correlation with an unused variable.
    """
    _require_node_ids(d, "a path model")
    n = len(d.columns)
    if n < 2:
        raise InvalidSize("need at least two variables")
    corr = correlation_matrix(d)
    abs_corr = np.abs(corr)
    np.fill_diagonal(abs_corr, -1.0)
    if np.max(abs_corr) <= VAR_EPS:
        raise ZeroCorrelation("all pairwise correlations vanish")
    a, b = np.unravel_index(int(np.argmax(abs_corr)), abs_corr.shape)
    chain = [int(a), int(b)]
    unused = set(range(n)) - set(chain)
    while unused:
        head, tail = chain[0], chain[-1]
        best = None
        for v in sorted(unused):
            for end, at_front in ((head, True), (tail, False)):
                score = abs_corr[v, end]
                if best is None or score > best[0]:
                    best = (score, v, at_front)
        score, v, at_front = best
        if score <= VAR_EPS:
            raise ZeroCorrelation("chain extension correlation vanishes")
        if at_front:
            chain.insert(0, v)
        else:
            chain.append(v)
        unused.discard(v)
    adjacent = [float(corr[chain[i], chain[i + 1]]) for i in range(n - 1)]
    order = [d.columns[i] for i in chain]
    return PathModel(order, adjacent)
