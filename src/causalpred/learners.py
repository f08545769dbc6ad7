"""Fit causal models from observed test outcomes.

PC as empirical risk minimization over conditional-independence tests,
polytree construction from bivariate additive-noise tests, and greedy
path-model estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Query, binary, ci_query_array, sample_queries
from .errors import InvalidSize, KTooLarge, ZeroCorrelation

# d_separated stays bound here for the benchmark's tracer
from .models import (
    PathModel,
    Polytree,
    _Pdag,
    d_connection_rows,
    d_separated,
    d_separated_many,
    forest_union,
)
from .stattests import (
    VAR_EPS,
    TestOutcome,
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


def pc_from_ci(n, ci_test, max_cond):
    """Core PC skeleton + orientation phase driven by a CI callback.

    ``ci_test(a, b, cond)`` must return a TestOutcome whose binary value is
    1 for independence.  Edges are scanned in lexicographic order; the
    separating set recorded at deletion time drives v-structure
    orientation.  Returns the CPDAG and every executed test, deduplicated
    by canonical query.
    """
    if max_cond < 0:
        raise InvalidSize("max_cond must be nonnegative")
    adjacency = {v: set(range(n)) - {v} for v in range(n)}
    sepset = {}
    log = {}

    # keyed by (a, b, cond): PC passes a < b and cond drawn from sorted
    # candidates, the canonical order of Query.ci, so no Query is built
    # for a test that was already run
    def run_test(a, b, cond):
        key = (a, b, cond)
        if key not in log:
            log[key] = LabeledQuery(Query.ci(a, b, cond), ci_test(a, b, cond))
        return log[key].outcome.value.value

    for level in range(max_cond + 1):
        removed = True
        while removed:
            removed = False
            for a, b in combinations(range(n), 2):
                if b not in adjacency[a]:
                    continue
                candidates = sorted(adjacency[a] - {b})
                if len(candidates) < level:
                    continue
                for cond in combinations(candidates, level):
                    if run_test(a, b, cond) == 1:
                        adjacency[a].discard(b)
                        adjacency[b].discard(a)
                        sepset[frozenset((a, b))] = set(cond)
                        removed = True
                        break
    pdag = _Pdag(
        n, undirected=[(a, b) for a, b in combinations(range(n), 2) if b in adjacency[a]]
    )
    # v-structures from the recorded separating sets
    for a, b in combinations(range(n), 2):
        if b in adjacency[a]:
            continue
        key = frozenset((a, b))
        if key not in sepset:
            continue
        for c in sorted(adjacency[a] & adjacency[b]):
            if c not in sepset[key]:
                pdag.orient(a, c)
                pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag(), list(log.values())


def pc_fit(d, alpha, max_cond, *, corr=None):
    """PC with Fisher-Z tests on the dataset's correlation matrix, or on
    ``corr`` when the caller has already built it."""
    if corr is None:
        corr = correlation_matrix(d)
    index = {v: i for i, v in enumerate(d.columns)}

    def ci_test(a, b, cond):
        return fisher_z_from_corr(
            corr, d.l, (index[a], index[b]), [index[c] for c in cond], alpha
        )

    return pc_from_ci(len(d.columns), ci_test, max_cond)


def pc_oracle(g, max_cond):
    """PC driven by exact d-separation in a known graph (no data): the
    d-connection rows of every source given a conditioning set, built when
    PC first tests given that set."""
    sources = np.arange(g.n)
    tables = {}

    def ci_test(a, b, cond):
        if cond not in tables:
            tables[cond] = d_connection_rows(g, sources, [cond])
        return TestOutcome(binary(int(not tables[cond][a, b])), None, None)

    return pc_from_ci(g.n, ci_test, max_cond)


# --- confidence-level selection -----------------------------------------------


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def select_alpha(candidates, scms, l, seed=0):
    """Pick the test confidence level with the best mean F1 of predicted
    dependence against d-separation ground truth, over marginal and
    one-variable-conditioned queries; ties go to the smaller alpha."""
    if not candidates:
        raise InvalidSize("need at least one candidate alpha")
    scores = {a: [] for a in candidates}
    for idx, scm in enumerate(scms):
        data = sample(scm, l, seed + idx).dataset
        g = scm.dag()
        corr = correlation_matrix(data)
        queries = ci_query_array(g.n, (0, 1))
        true_dep = d_separated_many(g, queries) == 0
        p = fisher_z_many(corr, l, queries, candidates[0])[1]
        for alpha in candidates:
            _require_alpha(alpha)
            predicted_dep = p <= alpha  # label 0: p is never NaN here
            tp = int(np.count_nonzero(predicted_dep & true_dep))
            fp = int(np.count_nonzero(predicted_dep & ~true_dep))
            fn = int(np.count_nonzero(~predicted_dep & true_dep))
            scores[alpha].append(_f1(tp, fp, fn))
    means = {a: float(np.mean(s)) if s else 0.0 for a, s in scores.items()}
    best = max(means.values())
    return min(a for a in candidates if means[a] == best)


# --- polytrees from ANM tests -------------------------------------------------


def polytree_from_anm(d, k, alpha, seed, tester=None):
    """Three-step polytree construction from bivariate additive-noise tests.

    1. test k ordered pairs drawn uniformly without replacement,
    2. add an edge per accepted test,
    3. while the skeleton has an undirected cycle, drop the cycle edge
       with the lowest residual-independence p-value.

    ``tester`` may replace the default ANM test (it receives the query and
    must return a TestOutcome); used for cached or synthetic outcomes.
    """
    universe = [
        Query.ordered_pair(a, b) for a in d.columns for b in d.columns if a != b
    ]
    if not 1 <= k <= len(universe):
        raise KTooLarge(f"k={k} outside 1..{len(universe)}")
    if tester is None:
        tester = lambda q: anm_test(d, q, alpha)
    chosen = sample_queries(universe, k, seed)
    labels = [LabeledQuery(q, tester(q)) for q in chosen]

    # Kruskal over the accepted edges, strongest first: (p-value, positional
    # edge) is a strict order, so this keeps the unique maximum spanning
    # forest, which is what repeatedly dropping the weakest edge on a cycle
    # leaves.
    pos = {v: i for i, v in enumerate(d.columns)}

    def strength(lq):
        p = lq.outcome.p_value
        return (p if p is not None else 0.0, tuple(pos[v] for v in lq.query.members))

    accepted = sorted(
        (lq for lq in labels if lq.outcome.value.value == 1), key=strength, reverse=True
    )
    n = max(d.columns) + 1
    union = forest_union(n)
    edges = [lq.query.members for lq in accepted if union(*lq.query.members)]
    return Polytree(n, edges), labels


# --- path models --------------------------------------------------------------


def fit_path_model(d):
    """Greedy chain construction from pairwise correlations.

    Starts from the strongest pair and repeatedly extends whichever chain
    end has the largest absolute correlation with an unused variable.
    """
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
