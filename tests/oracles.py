"""Independent reference implementations used only by the tests.

These deliberately use different algorithms than the package (moralized
ancestral graphs instead of reachability, Floyd-Warshall closure instead
of DFS) so that agreement is meaningful evidence of correctness.
"""

import numpy as np
from scipy.stats import gamma as gamma_dist

from causalpred.errors import DegenerateInput, InvalidSize
from causalpred.models import Dag
from causalpred.stattests import DEFAULT_RIDGE_SCALE, VAR_EPS


def moral_d_separated(g: Dag, x, y, z):
    """d-separation via the moralized ancestral graph.

    Restrict to ancestors of {x, y} union z, marry co-parents, drop
    directions, remove z, and check undirected connectivity of x and y.
    """
    relevant = set(z) | {x, y}
    for v in list(relevant):
        relevant |= g.ancestors(v)

    und = set()
    for a, b in g.edges:
        if a in relevant and b in relevant:
            und.add(frozenset((a, b)))
    for v in relevant:
        ps = sorted(p for p in g.parents(v) if p in relevant)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                und.add(frozenset((ps[i], ps[j])))

    adj = {v: set() for v in relevant}
    for e in und:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)

    blocked = set(z)
    stack, seen = [x], {x}
    while stack:
        u = stack.pop()
        if u == y:
            return 0
        for w in adj[u]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return 1


def closure_has_path(g: Dag, i, j):
    """Directed reachability via Floyd-Warshall transitive closure."""
    n = g.n
    reach = np.zeros((n, n), dtype=bool)
    for a, b in g.edges:
        reach[a, b] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach[i, j])


def random_dag(n, seed, p=0.5):
    """Random DAG: random permutation, forward edges with probability p."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((int(perm[a]), int(perm[b])))
    return Dag(n, edges)


# --- kernel layer: the former dense formulas ----------------------------------
#
# The package centres Grams by their means, builds each Gram once per test
# and reads only the pairs i < j for the median; these are the direct
# formulas it replaced: the median over the full distance matrix, H K H by
# two dense products with H = I - 1/m, and an additive-noise test that
# recomputes every bandwidth and Gram in each of its three steps.


def ref_median_bandwidth(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = (x[:, None] - x[None, :]) ** 2
    pos = d2[d2 > 0]
    if pos.size == 0:
        raise DegenerateInput("all points identical")
    return float(np.sqrt(0.5 * np.median(pos)))


def _ref_gram(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = (x[:, None] - x[None, :]) ** 2
    return np.exp(-d2 / (2.0 * ref_median_bandwidth(x) ** 2))


def ref_hsic_statistic(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    m = x.size
    k = _ref_gram(x)
    l = _ref_gram(y)
    h = np.eye(m) - np.full((m, m), 1.0 / m)
    kc = h @ k @ h
    lc = h @ l @ h
    stat = float(np.sum(kc * lc)) / m

    var_hsic = (kc * lc / 6.0) ** 2
    var_hsic = (var_hsic.sum() - np.trace(var_hsic)) / m / (m - 1)
    var_hsic *= 72.0 * (m - 4) * (m - 5) / m / (m - 1) / (m - 2) / (m - 3)
    k0 = k - np.diag(np.diag(k))
    l0 = l - np.diag(np.diag(l))
    mu_x = k0.sum() / m / (m - 1)
    mu_y = l0.sum() / m / (m - 1)
    mean_hsic = (1.0 + mu_x * mu_y - mu_x - mu_y) / m
    return stat, mean_hsic, var_hsic


def _ref_check_pair(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise InvalidSize("columns must have equal length")
    if x.size < 20:
        raise InvalidSize("need at least 20 samples")
    return x, y


def _ref_check_nonconstant(*cols):
    for c in cols:
        if np.var(c) < VAR_EPS:
            raise DegenerateInput("constant column")


def ref_hsic_p_value(x, y, method="gamma", n_permutations=500, seed=0):
    """p-value of the HSIC test, recomputing the statistic, with both
    bandwidths and Grams, for each permutation draw."""
    x, y = _ref_check_pair(x, y)
    _ref_check_nonconstant(x, y)
    stat, mean_hsic, var_hsic = ref_hsic_statistic(x, y)
    if method == "gamma":
        if mean_hsic <= 0 or var_hsic <= 0:
            raise DegenerateInput("gamma approximation undefined for this input")
        shape = mean_hsic**2 / var_hsic
        scale = var_hsic * x.size / mean_hsic
        return float(gamma_dist.sf(stat, shape, scale=scale))
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_permutations):
        if ref_hsic_statistic(x, rng.permutation(y))[0] >= stat:
            count += 1
    return (count + 1.0) / (n_permutations + 1.0)


def ref_kernel_regress(x, y, ridge_scale=DEFAULT_RIDGE_SCALE):
    x, y = _ref_check_pair(x, y)
    _ref_check_nonconstant(x)
    k = _ref_gram(x)
    lam = ridge_scale * x.size
    yc = y - y.mean()
    alpha_vec = np.linalg.solve(k + lam * np.eye(x.size), yc)
    return yc - k @ alpha_vec


def ref_anm_test(x, y, alpha, ridge_scale=DEFAULT_RIDGE_SCALE):
    """(value, residual p-value) of the additive-noise test of x -> y:
    five bandwidths and five Grams, two of them the source's twice."""
    marginal = ref_hsic_p_value(x, y)
    residuals = ref_kernel_regress(x, y, ridge_scale)
    resid = ref_hsic_p_value(x, residuals)
    return int(not marginal > alpha and resid > alpha), resid
