"""VC-dimension upper bounds, generalization-gap formulas, and the
test-budget planner, plus small-n exhaustive cross-checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations, product

from .core import Query, QueryKind, enumerate_queries
from .errors import InvalidN, InvalidParams, InvalidSize, NTooLarge, UnsupportedClass
from .models import (
    Dag,
    PathModel,
    d_separated,
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


@dataclass(frozen=True)
class BoundReport:
    h: float
    k: int
    eta: float
    empirical_risk: float
    gap: float

    @property
    def bound(self):
        return self.empirical_risk + self.gap


def vc_upper_bound(c: ModelClassId, n: int, path_corr_constant=PATH_CORR_CONSTANT) -> float:
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
      slope ``path_corr_constant``, not a log-cardinality bound.
    """
    if n < 2:
        raise InvalidN("need at least two nodes")
    if c in (ModelClassId.ALL_DAGS, ModelClassId.DIRECTIONALITY):
        return n * math.log2(n) + n * (n - 1) / 2.0
    if c == ModelClassId.POLYTREES:
        return n * (math.log2(n) + 1.0)
    if c == ModelClassId.PATH_SIGN:
        return float(n)
    if c == ModelClassId.PATH_CORR:
        return path_corr_constant * n
    raise UnsupportedClass(str(c))


def _check_gap_params(h, k, eta):
    if k < 1 or h <= 0:
        raise InvalidParams("need k >= 1 and h > 0")
    if not 0.0 < eta < 1.0:
        raise InvalidParams(f"eta {eta} outside (0, 1)")


def gap_binary(h, k, eta) -> float:
    """Binary generalization gap 2 sqrt((h (ln(2k/h) + 1) - ln(eta/9)) / k),
    clamped to [0, 1]; the trivial gap 1 when 2k <= h."""
    _check_gap_params(h, k, eta)
    if 2.0 * k <= h:
        return 1.0
    inner = (h * (math.log(2.0 * k / h) + 1.0) - math.log(eta / 9.0)) / k
    return max(0.0, min(1.0, 2.0 * math.sqrt(max(inner, 0.0))))


def gap_real(h, k, eta, a, b) -> float:
    """Real-valued gap (b-a) sqrt((h (ln(k/h) + 1) - ln(eta/4)) / k),
    clamped to [0, b-a]; trivial when k <= h."""
    _check_gap_params(h, k, eta)
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
    """Smallest k with class_gap(c, vc_upper_bound(c, n), k, eta) <= eps;
    both gaps are non-increasing in k."""
    if not 0.0 < eps < 1.0:
        raise InvalidParams(f"eps {eps} outside (0, 1)")
    h = vc_upper_bound(c, n)
    k = 1
    while class_gap(c, h, k, eta) > eps:
        k *= 2
        if k > 2**60:
            raise InvalidParams("no feasible training-set count below 2^60")
    if k == 1:
        return 1
    lo, hi = k // 2, k
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if class_gap(c, h, mid, eta) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def count_queries(n, kind, cond_size=0) -> int:
    """Closed-form size of the query universe; matches enumerate_queries."""
    if n < 2:
        raise InvalidSize("need at least two variables")
    if kind == QueryKind.COND_INDEP:
        if cond_size < 0 or cond_size > n - 2:
            raise InvalidSize(f"conditioning size {cond_size} infeasible for n={n}")
        return n * (n - 1) // 2 * math.comb(n - 2, cond_size)
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
        except Exception:
            continue
    return out


def _ci_universe(n):
    out = []
    for cond_size in range(n - 1):
        out.extend(enumerate_queries(n, QueryKind.COND_INDEP, cond_size))
    return out


def brute_force_vc_check(c: ModelClassId, n) -> int:
    """Exact number of distinct predictor functions the class realizes on
    the full query universe; its log2 must stay below vc_upper_bound."""
    if n > 4:
        raise NTooLarge("exhaustive enumeration is limited to n <= 4")
    if n < 2:
        raise InvalidN("need at least two nodes")
    if c in (ModelClassId.ALL_DAGS, ModelClassId.POLYTREES):
        queries = _ci_universe(n)
        dags = all_dags(n)
        if c == ModelClassId.POLYTREES:
            dags = [g for g in dags if is_polytree_edges(n, g.edges)]
        functions = {tuple(d_separated(g, q) for q in queries) for g in dags}
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
