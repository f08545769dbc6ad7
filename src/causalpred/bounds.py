"""VC-dimension upper bounds, generalization-gap formulas, and the
test-budget planner, plus small-n exhaustive cross-checks."""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from itertools import combinations, permutations, product

from .core import QueryKind, _check_ci_universe, ci_query_array, enumerate_queries
from .errors import GraphError, InvalidN, InvalidParams, InvalidSize, NTooLarge, UnsupportedClass
from .models import (
    Dag,
    PathModel,
    d_separated_many,
    is_polytree_edges,
    path_sign,
    q_dirpath,
)

# Constant for the linear-order bound of the real-valued path-correlation
# class; the underlying lemma states only O(n), this fixes the slope.
PATH_CORR_CONSTANT = 4.0


class ModelClassId(Enum):
    ALL_DAGS = "alldags"
    POLYTREES = "polytrees"
    PATH_SIGN = "pathsign"
    PATH_CORR = "pathcorr"
    DIRECTIONALITY = "directionality"


def _double(name, v):
    """``v`` as a float; a number that a double cannot hold is refused."""
    try:
        return float(v)
    except OverflowError:
        raise InvalidParams(f"{name} is too large for a double") from None


def vc_upper_bound(c: ModelClassId, n: int) -> float:
    """VC upper bound h for each model class, as used by the gap formulas.

    Every class but PATH_CORR gets a log-cardinality bound: log2 of an
    upper bound on the number of graphs, hence on the number of distinct
    predictor functions, which also caps the VC dimension.

    - ALL_DAGS: ``d_separated`` over all DAGs; at most n! 2^(n(n-1)/2) DAGs.
    - POLYTREES: ``d_separated`` over polytrees, and the edge-membership
      predictor ``q_anm_polytree``; at most (n+1)^(n-1) 2^(n-1) <= (2n)^n
      oriented forests.
    - PATH_SIGN: ``path_sign`` over path models; the pair signs factor as
      products of node potentials, so at most 2^(n-1) functions.
    - DIRECTIONALITY: ``q_dirpath`` over all DAGs.  A directed-path
      function depends only on the transitive closure, so the class has
      no more functions than there are DAGs and shares the ALL_DAGS bound.
      It shatters floor(n/2) ceil(n/2) ordered pairs (sources x sinks),
      so no bound linear in n holds.
    - PATH_CORR: the real-valued ``path_corr``; a linear-order bound with
      slope ``PATH_CORR_CONSTANT``, not a log-cardinality bound.
    """
    if n < 2:
        raise InvalidN("need at least two nodes")
    n = _double("n", n)
    if c in (ModelClassId.ALL_DAGS, ModelClassId.DIRECTIONALITY):
        return n * math.log2(n) + n * (n - 1) / 2.0
    if c == ModelClassId.POLYTREES:
        return n * (math.log2(n) + 1.0)
    if c == ModelClassId.PATH_SIGN:
        return n
    if c == ModelClassId.PATH_CORR:
        return PATH_CORR_CONSTANT * n
    raise UnsupportedClass(str(c))


def _check_gap_params(h, k, eta):
    if k < 1:
        raise InvalidParams(f"need k >= 1, not {k}")
    if not 0 < h < math.inf:
        raise InvalidParams(f"need a finite h > 0, not {h}")
    if not 0.0 < eta < 1.0:
        raise InvalidParams(f"eta {eta} outside (0, 1)")
    return _double("k", k)


def gap_binary(h, k, eta) -> float:
    """Binary generalization gap 2 sqrt((h (ln(2k/h) + 1) - ln(eta/9)) / k),
    clamped to [0, 1]; the trivial gap 1 when 2k <= h."""
    k = _check_gap_params(h, k, eta)
    if k <= h / 2.0:  # exactly 2k <= h, where 2k may overflow
        return 1.0
    inner = (h * (math.log(2.0 * (k / h)) + 1.0) - math.log(eta / 9.0)) / k
    return max(0.0, min(1.0, 2.0 * math.sqrt(max(inner, 0.0))))


def gap_real(h, k, eta, a, b) -> float:
    """Real-valued gap (b-a) sqrt((h (ln(k/h) + 1) - ln(eta/4)) / k),
    clamped to [0, b-a]; trivial when k <= h."""
    k = _check_gap_params(h, k, eta)
    if b <= a:
        raise InvalidParams("need b > a")
    width = b - a
    if k <= h:
        return width
    inner = (h * (math.log(k / h) + 1.0) - math.log(eta / 4.0)) / k
    return max(0.0, min(width, width * math.sqrt(max(inner, 0.0))))


def class_gap(c: ModelClassId, h, k, eta) -> float:
    """The gap that bounds the class's predictor: ``gap_real`` over the
    range [-1, 1] of a correlation for PATH_CORR, ``gap_binary`` for the
    binary classes."""
    if c == ModelClassId.PATH_CORR:
        return gap_real(h, k, eta, -1.0, 1.0)
    return gap_binary(h, k, eta)


def min_training_sets(c: ModelClassId, n, eps, eta) -> int:
    """Smallest k <= 2^60 with class_gap(c, vc_upper_bound(c, n), k, eta)
    <= eps, by bisection: both gaps are non-increasing in k."""
    if not 0.0 < eps < 1.0:
        raise InvalidParams(f"eps {eps} outside (0, 1)")
    h = vc_upper_bound(c, n)
    k = 1 + bisect_left(range(1, 2**60 + 1), True, key=lambda j: class_gap(c, h, j, eta) <= eps)
    if k > 2**60:
        raise InvalidParams("no feasible training-set count below 2^60")
    return k


def count_queries(n, kind, cond_size=0) -> int:
    """Closed-form size of the query universe; matches enumerate_queries."""
    if kind == QueryKind.COND_INDEP:
        _check_ci_universe(n, cond_size)
        # math.comb's cost grows with C(m, s) >= (m / s)^s; refuse past 2^1024
        s = min(cond_size, n - 2 - cond_size)
        if s and s * (math.log2(n - 2) - math.log2(s)) >= 1024:
            raise InvalidSize("the universe holds more queries than a double can hold")
        return n * (n - 1) // 2 * math.comb(n - 2, cond_size)
    if n < 2:
        raise InvalidSize("need at least two variables")
    if cond_size:
        raise InvalidSize("conditioning set only applies to conditional independence")
    if kind == QueryKind.ORDERED_PAIR:
        return n * (n - 1)
    if kind == QueryKind.UNORDERED_PAIR:
        return n * (n - 1) // 2
    raise InvalidSize(f"no closed-form count for {kind}")


# --- exhaustive small-n cross-checks ------------------------------------------


def all_dags(n):
    """Every DAG on n labeled nodes (feasible for n <= 4)."""
    pairs = list(combinations(range(n), 2))
    out = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), s in zip(pairs, states):
            if s == 1:
                edges.append((a, b))
            elif s == 2:
                edges.append((b, a))
        try:
            out.append(Dag(n, edges))
        except GraphError:  # a directed cycle
            continue
    return out


def brute_force_vc_check(c: ModelClassId, n) -> int:
    """Exact number of distinct predictor functions the class realizes on
    the full query universe; its log2 must stay below vc_upper_bound."""
    if n > 4:
        raise NTooLarge("exhaustive enumeration is limited to n <= 4")
    if n < 2:
        raise InvalidN("need at least two nodes")
    if c in (ModelClassId.ALL_DAGS, ModelClassId.POLYTREES):
        queries = ci_query_array(n, range(n - 1))
        dags = all_dags(n)
        if c == ModelClassId.POLYTREES:
            dags = [g for g in dags if is_polytree_edges(n, g.edges)]
        functions = {d_separated_many(g, queries).tobytes() for g in dags}
        return len(functions)
    if c == ModelClassId.DIRECTIONALITY:
        queries = enumerate_queries(n, QueryKind.ORDERED_PAIR)
        functions = {tuple(q_dirpath(g, q) for q in queries) for g in all_dags(n)}
        return len(functions)
    if c == ModelClassId.PATH_SIGN:
        queries = enumerate_queries(n, QueryKind.UNORDERED_PAIR)
        functions = set()
        for order in permutations(range(n)):
            for signs in product((-0.5, 0.5), repeat=n - 1):
                m = PathModel(order, signs)
                functions.add(tuple(path_sign(m, q) for q in queries))
        return len(functions)
    raise UnsupportedClass(f"no exhaustive check for {c} (real-valued class)")
