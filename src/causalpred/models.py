"""Causal model classes acting as predictors of statistical properties.

DAGs, CPDAGs, polytrees and collider-free path models, together with the
graph machinery they need: d-separation, Meek orientation rules, Markov
equivalence, random consistent extensions, and Gaussian chain merging.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .core import Query, QueryKind, check_ci_rows, check_nodes, load_json
from .errors import (
    DegenerateInput,
    GraphError,
    InvalidSize,
    MarginalMismatch,
    NonPsdInput,
    ParseError,
    UnknownNode,
    ZeroCorrelation,
)


def reach(starts, step):
    """Every node reachable from ``starts`` along ``step``, a per-node table
    of successors (parents, children); the starts themselves included."""
    seen = set()
    stack = list(starts)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(step[u])
    return seen


# the most nodes a graph takes, since a model file or a column id can name
# any n: a Dag builds two sets per node, ~0.95 KB at peak; an edgeless
# Polytree peaked at 9.5 MB traced at this many (0.04 s), 95 MB at 10^5
MAX_DAG_NODES = 10_000


def check_graph_size(n):
    """Refuse a graph on more than MAX_DAG_NODES nodes; allocates nothing."""
    if n > MAX_DAG_NODES:
        raise InvalidSize(f"a graph on {n} nodes; the limit is {MAX_DAG_NODES} nodes")


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on nodes 0..n-1; an edge (i, j) means i -> j.

    Each node's parents and children are built once, as frozensets, and are
    not fields: equality, hashing and repr see only ``n`` and ``edges``."""

    n: int
    edges: frozenset

    def __init__(self, n, edges):
        check_graph_size(n)
        edges = frozenset((int(a), int(b)) for a, b in edges)
        for a, b in edges:
            if a == b:
                raise GraphError(f"self-loop at {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownNode(a if not 0 <= a < n else b)
        n = int(n)
        parents = [set() for _ in range(n)]
        children = [set() for _ in range(n)]
        for a, b in edges:
            parents[b].add(a)
            children[a].add(b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_parents", tuple(map(frozenset, parents)))
        object.__setattr__(self, "_children", tuple(map(frozenset, children)))
        if self.topological_order() is None:
            raise GraphError("graph contains a directed cycle")

    def parents(self, v):
        return self._parents[v]

    def children(self, v):
        return self._children[v]

    def topological_order(self):
        indeg = [len(p) for p in self._parents]
        queue = deque(v for v in range(self.n) if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in sorted(self._children[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        return order if len(order) == self.n else None

    def ancestors(self, v):
        """Proper ancestors of v (v itself excluded)."""
        return reach(self._parents[v], self._parents)

    def skeleton(self):
        return frozenset(frozenset(e) for e in self.edges)

    def has_path(self, i, j):
        """True iff a directed path i -> ... -> j exists."""
        return j in reach([i], self._children)


class Polytree(Dag):
    """A DAG whose undirected skeleton is a forest."""

    def __init__(self, n, edges):
        super().__init__(n, edges)
        if not is_polytree_edges(n, self.edges):
            raise GraphError("skeleton contains an undirected cycle")


def forest_union(n):
    """Incremental union-find on nodes 0..n-1, returned as ``union(a, b)``.

    ``union`` joins the trees of a and b and returns True, or returns False
    when they already share a tree, i.e. when the undirected edge a-b would
    close a cycle.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    return union


def is_polytree_edges(n, edges) -> bool:
    union = forest_union(n)
    return all(union(a, b) for a, b in edges)


@dataclass(frozen=True)
class Cpdag:
    """Partially directed graph as produced by the PC algorithm."""

    n: int
    directed: frozenset
    undirected: frozenset

    def __init__(self, n, directed, undirected):
        directed = frozenset((int(a), int(b)) for a, b in directed)
        undirected_pairs = [(int(a), int(b)) for a, b in undirected]
        for kind, edges in (("directed", directed), ("undirected", undirected_pairs)):
            for a, b in edges:
                if a == b or not (0 <= a < n and 0 <= b < n):
                    raise GraphError(f"bad {kind} edge ({a}, {b})")
        undirected = frozenset(map(frozenset, undirected_pairs))
        for a, b in directed:
            if frozenset((a, b)) in undirected:
                raise GraphError(f"edge {a}-{b} both directed and undirected")
        Dag(n, directed)  # directed part must be acyclic
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)


@dataclass(frozen=True)
class PathModel:
    """Collider-free chain: node order plus correlations of adjacent pairs."""

    order: tuple
    adjacent_corr: tuple

    def __init__(self, order, adjacent_corr):
        order = tuple(int(v) for v in order)
        adjacent_corr = tuple(float(r) for r in adjacent_corr)
        if sorted(order) != list(range(len(order))):
            raise GraphError("order must be a permutation of 0..n-1")
        if len(adjacent_corr) != len(order) - 1:
            raise InvalidSize("need exactly n-1 adjacent correlations")
        for r in adjacent_corr:
            if not abs(r) < 1.0:
                raise InvalidSize(f"adjacent correlation {r} outside (-1, 1)")
            if r == 0.0:
                raise ZeroCorrelation("adjacent correlations must be nonzero")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adjacent_corr", adjacent_corr)

    @property
    def n(self):
        return len(self.order)

    def position(self, v):
        try:
            return self.order.index(v)
        except ValueError:
            raise UnknownNode(v) from None


# --- predictors ---------------------------------------------------------------


# a step takes every move while that costs fewer words than this, since
# then finding the frontier would cost more than the step; past it, a step
# follows the frontier's moves alone while they are under 1/FRONTIER_SHARE
# of all moves
EVERY_MOVE_WORDS = 1 << 13
FRONTIER_SHARE = 4


def _row_bits(nodes, at, rows, words):
    """``bits[v]``: a bitset over ``rows`` rows, 64 a uint64 word, of the
    rows r with v in ``at[..., r]``; ``at`` broadcasts against the rows."""
    bits = np.zeros((nodes, 64 * words), dtype=bool)
    bits[at, np.arange(rows)] = True
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def d_connection_rows(g: Dag, sources, conds) -> np.ndarray:
    """``connected[r, y]``: is y d-connected to ``sources[r]`` given the
    conditioning set ``conds[r]``?  ``conds`` holds one set per source, or
    one set for every source, padded with -1.

    The Bayes-ball walk (Shachter, 1998) as reachability among states: a
    node is entered from a child ("up") or from a parent ("down").  Entered
    up, a node outside z passes the trail to its parents (up) and children
    (down); entered down, a node outside z passes it to its children, and
    a node in z, an observed collider, back up to its parents.  A collider
    outside z with a descendant in z needs no rule of its own: the trail
    runs down to that descendant and back up through it.  A node in z is
    connected to nothing; a source outside z is connected to itself.

    All rows walk at once: each of the 2n states holds a bitset of the
    rows that reached it, in w = ceil(rows / 64) uint64 words, and each
    move holds its gate, the w words of the rows whose z leaves it open.
    One breadth-first search runs from every row's source, entered up.  A
    step ANDs the words of the states the last step reached, each move's
    tail, with the move's gate, ORs them into the move's head, and keeps
    the bits no step set before.  It takes every move, O((n + e) * w), or,
    when few moves leave those states, only theirs, O(moves * w) after a
    sort of the moves; there are as many steps as the longest trail has.
    """
    n = g.n
    sources = np.asarray(sources, dtype=np.intp)
    conds = np.asarray(conds, dtype=np.intp)
    if sources.ndim != 1 or conds.ndim != 2 or len(conds) not in (1, len(sources)):
        raise InvalidSize("need one source per row and one conditioning set per row or for all")
    for nodes, low in ((sources, 0), (conds, -1)):
        if nodes.size and not (low <= nodes.min() and nodes.max() < n):
            raise UnknownNode(int(nodes.max() if nodes.max() >= n else nodes.min()))
    m = len(sources)
    words = -(-m // 64)
    in_z = _row_bits(n + 1, conds.T, m, words)  # padding marks row n
    # Node v is state v entered up and n + v entered down.  Edge p -> c
    # gives four moves: up c -> up p, up p -> down c and down p -> down c,
    # open while their gate node (c, p, p) is outside z, and down c -> up
    # p, open while c is in z.  The states some move enters are rows 0 to
    # h - 1 of the state tables, in state order, and the moves are sorted
    # by head, so a step that takes every move ORs into rows 0 to h - 1.
    p, c = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * len(g.edges)).reshape(-1, 2).T
    tail = np.concatenate([c, p, n + p, n + c])
    head = np.concatenate([p, n + c, n + c, p])
    gate = np.concatenate([c, p, p, n + 1 + c])  # a row of [~in_z, in_z]
    entered = np.zeros(2 * n, dtype=bool)
    entered[head] = True
    rank = np.argsort(np.argsort(~entered, kind="stable"))
    h = np.count_nonzero(entered)
    by_head = np.argsort(head, kind="stable")
    tail, head = rank[tail[by_head]], rank[head[by_head]]
    gates = np.concatenate([~in_z, in_z]).take(gate[by_head], axis=0)
    first = head.searchsorted(np.arange(h))  # each head's first move
    fresh = _row_bits(2 * n, rank[sources], m, words)
    unreached = ~fresh
    measure = len(tail) * words > EVERY_MOVE_WORDS
    if measure:  # the moves by tail, as positions in head order
        by_tail = np.argsort(tail, kind="stable")
        out = np.bincount(tail, minlength=2 * n)
        end = np.cumsum(out)
    sparse = False  # does the step take the frontier's moves alone?
    while True:
        if sparse:  # row i's moves are end[rows[i]] - k[i] to end[rows[i]] - 1
            move = by_tail[(end[rows] - ends).repeat(k) + np.arange(ends[-1])]
            move.sort()  # in head order
            into = head[move]
            cut = np.ones(len(into), dtype=bool)  # each head's first move
            np.not_equal(into[1:], into[:-1], out=cut[1:])
            cut = cut.nonzero()[0]
            bits = bits.take(rows.searchsorted(tail[move]), axis=0)
            step = np.bitwise_or.reduceat(bits & gates.take(move, axis=0), cut, axis=0)
            at = into[cut]
            old = unreached.take(at, axis=0)
            step &= old
            unreached[at] = old ^ step
        else:
            step = np.bitwise_or.reduceat(fresh.take(tail, axis=0) & gates, first, axis=0)
            step &= unreached[:h]
            unreached[:h] ^= step
            at = slice(0, h)
        if measure:
            live = step.any(axis=1)
            rows = at[live] if sparse else live.nonzero()[0]
            k = out[rows]
            ends = k.cumsum()
            if not (len(rows) and ends[-1]):  # no move leaves the frontier
                break
            sparse = FRONTIER_SHARE * ends[-1] < len(tail)
            if sparse:
                bits = step[live]
                continue
        elif not np.count_nonzero(step):
            break
        fresh = np.zeros((2 * n, words), dtype=np.uint64)
        fresh[at] = step
    connected = ~(unreached.take(rank[:n], axis=0) & unreached.take(rank[n:], axis=0) | in_z[:n])
    return np.unpackbits(connected.view(np.uint8), axis=1, count=m, bitorder="little").view(bool).T


class CiWalks(NamedTuple):
    """CI query rows as Bayes-ball walks: the distinct ``starts``
    (a, c1, ..., cs), and per row the index of its walk and its ``target``
    b.  Rows that agree but for b share one walk."""

    starts: np.ndarray
    walk: np.ndarray
    target: np.ndarray


def ci_walks(rows, n) -> CiWalks:
    """Check CI query rows (a, b, c1, ..., cs) on nodes 0..n-1, padded
    with -1, and deduplicate their walks; these depend on no graph, so one
    CiWalks serves every DAG on n nodes.  A bad row raises what
    ``d_separated`` raises on its query, for the first bad row."""
    rows = check_ci_rows(rows, n)
    starts = np.delete(rows, 1, axis=1)  # a, c1, ..., cs
    order = np.lexsort(starts.T)
    starts = starts[order]
    new = np.ones(len(starts), dtype=bool)
    new[1:] = (starts[1:] != starts[:-1]).any(axis=1)
    walk = np.empty(len(starts), dtype=np.intp)
    walk[order] = np.cumsum(new) - 1
    return CiWalks(starts[new], walk, rows[:, 1])


def d_separated_walks(g: Dag, walks: CiWalks) -> np.ndarray:
    """d-separation in g of the rows of ``ci_walks(rows, g.n)``, as a 0/1
    array in row order: one ``d_connection_rows`` call."""
    connected = d_connection_rows(g, walks.starts[:, 0], walks.starts[:, 1:])
    return (~connected[walks.walk, walks.target]).astype(np.int64)


def d_separated_many(g: Dag, rows) -> np.ndarray:
    """d-separation of each CI query row (a, b, c1, ..., cs), padded with
    -1, as a 0/1 array in row order: ``d_separated_walks`` of
    ``ci_walks``."""
    return d_separated_walks(g, ci_walks(rows, g.n))


def d_separated(g: Dag, q: Query) -> int:
    """1 iff the query pair is d-separated given the conditioning set: the
    one-row ``d_separated_many``."""
    if q.kind != QueryKind.COND_INDEP:
        raise InvalidSize("d-separation takes conditional-independence queries")
    check_nodes(g.n, *q.variables())
    return int(d_separated_many(g, [q.variables()])[0])


def q_dirpath(g: Dag, q: Query) -> int:
    """1 iff a directed path runs from the query's source to its target."""
    if q.kind != QueryKind.ORDERED_PAIR:
        raise InvalidSize("directed-path predictor takes ordered pairs")
    i, j = q.members
    check_nodes(g.n, i, j)
    return int(g.has_path(i, j))


def anm_polytree_many(g: Polytree, rows) -> np.ndarray:
    """Edge membership of ordered-pair rows (source, target) as a 0/1 array
    in row order; the first node outside the graph raises UnknownNode."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, 2)
    check_nodes(g.n, *rows.ravel().tolist())
    return np.array([pair in g.edges for pair in map(tuple, rows.tolist())], dtype=np.int64)


def q_anm_polytree(g: Polytree, q: Query) -> int:
    """1 iff the polytree has the edge source -> target: the one-row ``anm_polytree_many``."""
    if q.kind != QueryKind.ORDERED_PAIR:
        raise InvalidSize("polytree edge predictor takes ordered pairs")
    return int(anm_polytree_many(g, [q.members])[0])


def q_lingam_admissible(g: Dag, q: Query) -> int:
    """Admissibility of a linear additive noise model on an ordered tuple.

    Requires (1) no confounder: no node outside the tuple is an ancestor of
    two distinct tuple members, and (2) the tuple order is consistent with
    the graph.
    """
    if q.kind != QueryKind.ORDERED_TUPLE:
        raise InvalidSize("admissibility predictor takes ordered tuples")
    members = q.members
    check_nodes(g.n, *members)
    anc = {v: g.ancestors(v) for v in members}
    member_set = set(members)
    for yi, yj in combinations(members, 2):
        if (anc[yi] & anc[yj]) - member_set:
            return 0
    for i, yi in enumerate(members):
        for yj in members[i + 1 :]:
            if yj in anc[yi]:
                return 0
    return 1


def path_corr(m: PathModel, q: Query) -> float:
    """Correlation predicted by a chain: product of adjacent correlations."""
    if q.kind != QueryKind.UNORDERED_PAIR:
        raise InvalidSize("path correlation takes unordered pairs")
    j, k = q.members
    a, b = sorted((m.position(j), m.position(k)))
    if a == b:
        return 1.0
    out = 1.0
    for i in range(a, b):
        out *= m.adjacent_corr[i]
    return out


def path_sign(m: PathModel, q: Query) -> int:
    return 1 if path_corr(m, q) > 0 else -1


# --- Markov equivalence and CPDAG machinery -----------------------------------


def v_structures(g: Dag):
    """Unshielded colliders a -> c <- b with a, b nonadjacent."""
    skel = g.skeleton()
    out = set()
    for c in range(g.n):
        for a, b in combinations(sorted(g.parents(c)), 2):
            if frozenset((a, b)) not in skel:
                out.add((a, c, b))
    return out


class _Pdag:
    """Mutable partially directed graph used during orientation.

    Each edge is stored once per end: ``parents`` and ``children`` hold the
    directed edges, ``links[v]`` the nodes joined to v by an undirected one.
    """

    def __init__(self, n, directed=(), undirected=()):
        self.n = n
        self.parents = [set() for _ in range(n)]
        self.children = [set() for _ in range(n)]
        self.links = [set() for _ in range(n)]
        for a, b in directed:
            self.parents[b].add(a)
            self.children[a].add(b)
        for a, b in undirected:
            self.links[a].add(b)
            self.links[b].add(a)

    def directed_edges(self):
        return [(a, b) for a in range(self.n) for b in self.children[a]]

    def undirected_edges(self):
        """Undirected edges as pairs a < b, in lexicographic order."""
        return [(a, b) for a in range(self.n) for b in sorted(self.links[a]) if a < b]

    def adjacent(self, a, b):
        return b in self.parents[a] or b in self.children[a] or b in self.links[a]

    def orient(self, a, b):
        """Direct the undirected edge a-b as a -> b unless that closes a
        directed cycle."""
        if b not in self.links[a] or a in reach([b], self.children):
            return False
        self.links[a].discard(b)
        self.links[b].discard(a)
        self.children[a].add(b)
        self.parents[b].add(a)
        return True

    def apply_meek_rules(self):
        """Close the orientation under Meek rules R1-R4, restarting from the
        smallest undirected edge after each orientation.  Each rule needs a
        parent of x (R1) or of y (R2-R4), so an edge with no parent at
        either end is skipped."""
        parents = self.parents
        while any(
            self._meek_applies(x, y) and self.orient(x, y)
            for a, b in self.undirected_edges()
            if parents[a] or parents[b]
            for x, y in ((a, b), (b, a))
        ):
            pass

    def _meek_applies(self, x, y):
        """Does a Meek rule direct the undirected edge x - y as x -> y?"""
        parents, links, adjacent = self.parents, self.links, self.adjacent
        # R1: w -> x - y with w, y nonadjacent
        if any(not adjacent(w, y) for w in parents[x]):
            return True
        # R2: x -> v -> y
        if self.children[x] & parents[y]:
            return True
        # R3: x - v -> y and x - w -> y with v, w nonadjacent
        if any(not adjacent(v, w) for v, w in combinations(parents[y] & links[x], 2)):
            return True
        # R4: x - w -> v -> y with x adjacent to v and w, y nonadjacent
        return any(
            adjacent(x, v) and not adjacent(w, y)
            for v in parents[y]
            for w in parents[v] & links[x]
        )

    def to_cpdag(self):
        return Cpdag(self.n, self.directed_edges(), self.undirected_edges())


def random_dag_from_cpdag(c: Cpdag, seed) -> Dag:
    """Draw a consistent DAG extension with randomized choices.

    Repeatedly closes the orientation under Meek rules, then orients one
    remaining undirected edge at random.  Orientations that would close a
    directed cycle fall back to the opposite direction, so the procedure
    always terminates with a DAG even for non-extendable inputs.
    """
    rng = np.random.default_rng(seed)
    pdag = _Pdag(c.n, c.directed, c.undirected)
    while True:
        pdag.apply_meek_rules()
        edges = pdag.undirected_edges()
        if not edges:
            return Dag(c.n, pdag.directed_edges())
        a, b = edges[rng.integers(len(edges))]
        if rng.random() < 0.5:
            a, b = b, a
        if not pdag.orient(a, b):
            pdag.orient(b, a)


def cpdag_from_dag(g: Dag) -> Cpdag:
    """CPDAG of g's Markov equivalence class (v-structures plus Meek closure)."""
    pdag = _Pdag(g.n, undirected=g.edges)
    for a, c, b in v_structures(g):
        pdag.orient(a, c)
        pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag()


# --- Gaussian chain merging ---------------------------------------------------


def glue_gaussian_chain(cov_xy, cov_yz) -> np.ndarray:
    """Merge covariances of (X, Y) and (Y, Z) assuming the chain X -> Y -> Z.

    The chain implies X independent of Z given Y, which pins down the only
    missing entry: cov(X, Z) = cov(X, Y) cov(Y, Z) / var(Y).
    """
    cov_xy = np.asarray(cov_xy, dtype=float)
    cov_yz = np.asarray(cov_yz, dtype=float)
    for m in (cov_xy, cov_yz):
        if m.shape != (2, 2):
            raise InvalidSize("expected 2x2 covariance matrices")
        if not np.allclose(m, m.T, atol=1e-9) or np.linalg.eigvalsh(m).min() < -1e-9:
            raise NonPsdInput("covariance input not symmetric PSD")
    var_y = cov_xy[1, 1]
    if abs(var_y - cov_yz[0, 0]) > 1e-9:
        raise MarginalMismatch(
            f"var(Y) disagrees between marginals: {var_y} vs {cov_yz[0, 0]}"
        )
    if var_y < 1e-12:
        raise NonPsdInput("var(Y) is numerically zero")
    with np.errstate(over="ignore"):
        cov_xz = cov_xy[0, 1] * cov_yz[0, 1] / var_y
    if not np.isfinite(cov_xz):
        raise DegenerateInput("the glued covariance overflows a double; rescale the inputs")
    out = np.array(
        [
            [cov_xy[0, 0], cov_xy[0, 1], cov_xz],
            [cov_xy[0, 1], var_y, cov_yz[0, 1]],
            [cov_xz, cov_yz[0, 1], cov_yz[1, 1]],
        ]
    )
    if np.linalg.eigvalsh(out).min() < -1e-9:
        raise NonPsdInput("glued covariance not PSD")
    return out


# --- JSON serialization -------------------------------------------------------


def model_to_json(model) -> dict:
    if isinstance(model, PathModel):
        return {"type": "path", "order": list(model.order), "r": list(model.adjacent_corr)}
    if isinstance(model, Cpdag):
        return {
            "type": "cpdag",
            "n": model.n,
            "directed": sorted(map(list, model.directed)),
            "undirected": sorted(sorted(e) for e in model.undirected),
        }
    if isinstance(model, Polytree):
        return {"type": "polytree", "n": model.n, "directed": sorted(map(list, model.edges)), "undirected": []}
    if isinstance(model, Dag):
        return {"type": "dag", "n": model.n, "directed": sorted(map(list, model.edges)), "undirected": []}
    raise InvalidSize(f"cannot serialize {type(model).__name__}")


def _json_int(v, what):
    if type(v) is not int:  # a bool, or a float such as 0.5 or 1e400
        raise ParseError(f"{what} {v!r} is not a JSON integer")
    return v


def model_from_json(obj):
    """A model from its JSON object.  An unknown ``type``, or an ``n`` or
    node id that is not a JSON integer, is a ParseError; a negative ``n`` is
    an InvalidSize.

    A truth file of ``synthgen.save_truth`` reads as its graph: a ``linear``
    SCM as a Dag and a ``gam`` SCM, whose graph is a forest, as a Polytree."""
    kind = obj.get("type", "dag")
    if kind not in ("path", "cpdag", "polytree", "dag", "linear", "gam"):
        raise ParseError(f"unknown model type {kind!r}")
    if kind == "path":
        return PathModel([_json_int(v, "node id") for v in obj["order"]], obj["r"])
    n = _json_int(obj["n"], "n")
    if n < 0:
        raise InvalidSize(f"negative node count {n}")

    def edges(key):
        return [tuple(_json_int(v, "node id") for v in e) for e in obj[key]]

    if kind == "cpdag":
        return Cpdag(n, edges("directed"), edges("undirected"))
    key = "edges" if kind in ("linear", "gam") else "directed"
    return (Polytree if kind in ("polytree", "gam") else Dag)(n, edges(key))


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2)


def load_model(path):
    """Read a model file; a file whose JSON lacks a field or holds a value
    of the wrong type is a ParseError, like text that is not JSON."""
    with open(path, encoding="utf-8") as fh:
        obj = load_json(fh)
    if not isinstance(obj, dict):
        raise ParseError(f"{path} holds no JSON object")
    try:
        return model_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a model: {type(exc).__name__} {exc}") from None
