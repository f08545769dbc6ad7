"""Ground-truth structural causal models and samplers for the simulations.

Two generator families: linear-Gaussian SCMs (random node order, edge
probability tuned to a target expected degree, coefficients uniform on
[0.1, 1), standard-normal noise) and generalized-additive SCMs on forest
skeletons (one-hidden-layer tanh mechanisms, uniform noise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import InvalidDegree, InvalidSize
from .models import Dag, Polytree, forest_union

HIDDEN_UNITS = 20
NOISE_WIDTH = 1.0  # GAM noise is uniform on [-0.5, 0.5]
# a random SCM draws once per forward pair, n(n-1)/2 of them, and a linear
# one holds an n x n coefficient matrix: at this many nodes 18 MB traced
# and about 0.05 s (gam: 2 MB and 0.06 s), growing as n^2
MAX_SCM_NODES = 1000
# the most cells (l x n) in a sample: at this many `causalpred gen` peaked at
# 0.15 GB resident (linear, n = 10) and 0.67 GB (gam, n = 3); 61 MB at l = 10
MAX_SAMPLE_CELLS = 10**7


@dataclass(frozen=True)
class LinearScm:
    """x_i = noise_i + sum_j A[i, j] x_j with A respecting the node order."""

    n: int
    order: tuple  # order[v] = topological rank of node v
    coeffs: np.ndarray  # coeffs[child, parent]

    def __post_init__(self):
        order = tuple(int(r) for r in self.order)
        coeffs = np.array(self.coeffs, dtype=float)
        if sorted(order) != list(range(self.n)):
            raise InvalidSize("order must be a permutation of 0..n-1")
        if coeffs.shape != (self.n, self.n):
            raise InvalidSize("coefficient matrix must be n x n")
        rank = np.array(order)
        late = (coeffs != 0) & (rank >= rank[:, None])  # late[i, j]: j is not before i
        if late.any():
            i, j = divmod(int(np.argmax(late)), self.n)  # the first in row-major order
            raise InvalidSize(f"coefficient {j}->{i} violates the node order")
        coeffs.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def dag(self) -> Dag:
        return Dag(self.n, np.argwhere(self.coeffs != 0)[:, ::-1].tolist())


@dataclass(frozen=True)
class Mechanism:
    """One-hidden-layer map x -> w2 . tanh(w1 * x + b)."""

    w1: np.ndarray
    w2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("w1", "w2", "b"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (HIDDEN_UNITS,):
                raise InvalidSize(f"mechanism parameter {name} must have shape ({HIDDEN_UNITS},)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, x):
        h = np.outer(x, self.w1)  # one l x 20 temporary, updated in place
        h += self.b
        np.tanh(h, out=h)
        return h @ self.w2


@dataclass(frozen=True)
class GamScm:
    """Generalized-additive SCM on a forest skeleton with uniform noise of
    width ``NOISE_WIDTH``."""

    n: int
    dag: Polytree
    mechanisms: dict  # (parent, child) -> Mechanism

    def __post_init__(self):
        if set(self.mechanisms) != set(self.dag.edges):
            raise InvalidSize("mechanisms must cover exactly the edges of the skeleton")


@dataclass(frozen=True)
class ScmSample:
    dataset: Dataset


def _edge_probability(n, expected_degree):
    """The forward-pair edge probability of the expected degree, after the
    checks on n and the degree, which allocate nothing."""
    if n < 2:
        raise InvalidSize("need at least two nodes")
    if n > MAX_SCM_NODES:
        raise InvalidSize(f"{n} nodes requested; the limit is {MAX_SCM_NODES} nodes")
    if not 0 < expected_degree <= n - 1:
        raise InvalidDegree(f"expected degree {expected_degree} outside (0, {n - 1}]")
    return expected_degree / (n - 1)


def _uniforms(rng, n):
    """The doubles of successive ``rng.random()`` calls, drawn n at a time:
    ``rng.random(k)`` yields the same k."""
    while True:
        yield from rng.random(n).tolist()


def _random_edges(n, expected_degree, seed):
    """A random SCM's node order, its uniform cursor, and its candidate
    edges (j, i), j before i: the forward pairs in lexicographic rank
    order whose draw passes the edge test.  The pairs are yielded one at a
    time between the draws, so a caller may draw an edge's parameters from
    the cursor before the next pair's test."""
    p = _edge_probability(n, expected_degree)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).tolist()  # perm[rank] = node
    cursor = _uniforms(rng, n)
    draw = cursor.__next__
    edges = ((perm[a], perm[b]) for a in range(n) for b in range(a + 1, n) if draw() < p)
    return tuple(np.argsort(perm).tolist()), cursor, edges  # order[node] = rank


def gen_linear_scm(n, expected_degree, seed) -> LinearScm:
    order, cursor, edges = _random_edges(n, expected_degree, seed)
    coeffs = np.zeros((n, n))
    for j, i in edges:  # j precedes i in the order
        coeffs[i, j] = 0.1 + 0.9 * next(cursor)
    return LinearScm(n, order, coeffs)


def _random_mechanism(cursor) -> Mechanism:
    w1, w2, b = np.fromiter(cursor, float, 3 * HIDDEN_UNITS).reshape(3, HIDDEN_UNITS)
    return Mechanism(0.1 + 0.9 * w1, 0.1 + 0.9 * w2, -1.0 + 2.0 * b)


def gen_gam_scm(n, expected_degree, seed) -> GamScm:
    """Like gen_linear_scm, but an edge closing an undirected cycle is
    rejected, and draws no mechanism."""
    _, cursor, edges = _random_edges(n, expected_degree, seed)
    union = forest_union(n)
    mechanisms = {e: _random_mechanism(cursor) for e in edges if union(*e)}
    return GamScm(n, Polytree(n, list(mechanisms)), mechanisms)


def gen_gam_chain(n, seed) -> GamScm:
    """A directed chain 0 -> 1 -> ... -> n-1 with random tanh mechanisms."""
    cursor = _uniforms(np.random.default_rng(seed), n)
    mechanisms = {(i, i + 1): _random_mechanism(cursor) for i in range(n - 1)}
    return GamScm(n, Polytree(n, list(mechanisms)), mechanisms)


def check_sample_size(n, l):
    """Refuse an empty sample or one over MAX_SAMPLE_CELLS; allocates nothing."""
    if l < 1:
        raise InvalidSize("need at least one sample")
    if l * n > MAX_SAMPLE_CELLS:
        raise InvalidSize(f"{l} samples of {n} variables; the limit is {MAX_SAMPLE_CELLS} cells")


def sample(scm, l, seed) -> ScmSample:
    """Draw l i.i.d. rows, evaluating ancestors before descendants."""
    check_sample_size(scm.n, l)
    rng = np.random.default_rng(seed)
    n = scm.n
    # x starts as the noise: a column not yet visited meets zero coefficients,
    # and a node with none has only its noise (x @ 0 would add +-0)
    if isinstance(scm, LinearScm):
        x = rng.standard_normal((l, n))
        has_parents = scm.coeffs.any(axis=1)
        for v in np.argsort(np.asarray(scm.order)):  # node visited at each rank
            if has_parents[v]:
                x[:, v] += x @ scm.coeffs[v]
    elif isinstance(scm, GamScm):
        x = rng.uniform(-NOISE_WIDTH / 2.0, NOISE_WIDTH / 2.0, size=(l, n))
        for v in scm.dag.topological_order():
            for p in sorted(scm.dag.parents(v)):
                x[:, v] += scm.mechanisms[(p, v)](x[:, p])
    else:
        raise InvalidSize(f"cannot sample from {type(scm).__name__}")
    return ScmSample(Dataset(x, tuple(range(n))))


def truth_to_json(scm) -> dict:
    """An SCM as a JSON object, which ``models.model_from_json`` reads back
    as the SCM's graph."""
    if isinstance(scm, LinearScm):
        dag = scm.dag()
        return {
            "type": "linear",
            "n": scm.n,
            "order": list(scm.order),
            "edges": sorted(map(list, dag.edges)),
            "coeffs": scm.coeffs.tolist(),
        }
    if isinstance(scm, GamScm):
        return {
            "type": "gam",
            "n": scm.n,
            "edges": sorted(map(list, scm.dag.edges)),
            "noise_width": NOISE_WIDTH,
            "mechanisms": {
                f"{p}->{c}": {"w1": m.w1.tolist(), "w2": m.w2.tolist(), "b": m.b.tolist()}
                for (p, c), m in sorted(scm.mechanisms.items())
            },
        }
    raise InvalidSize(f"cannot serialize {type(scm).__name__}")


def save_truth(scm, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth_to_json(scm), fh, indent=2)
