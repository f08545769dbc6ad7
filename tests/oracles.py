"""Independent reference implementations used only by the tests.

These deliberately use different algorithms than the package (moralized
ancestral graphs instead of reachability, Floyd-Warshall closure instead
of DFS) so that agreement is meaningful evidence of correctness.
"""

import csv
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from causalpred.bounds import ModelClassId, gap_binary, vc_upper_bound
from causalpred.core import (
    Dataset,
    Query,
    QueryKind,
    binary,
    check_universe,
    load_json,
    sample_queries,
)
from causalpred.errors import (
    DegenerateInput,
    DuplicateColumn,
    InvalidParams,
    InvalidSize,
    LengthMismatch,
    NonNumericCell,
    ParseError,
    TagMismatch,
    ZeroCorrelation,
)
from causalpred.harness import RiskRecord
from causalpred.learners import LabeledQuery, _join_levels, pc_fit, pc_oracle
from causalpred.models import (
    Cpdag,
    Dag,
    PathModel,
    Polytree,
    _Pdag,
    d_separated_many,
    forest_union,
    is_polytree_edges,
    random_dag_from_cpdag,
    v_structures,
)
from causalpred.stattests import (
    RIDGE_SCALE,
    VAR_EPS,
    TestOutcome,
    _fisher_z,
    anm_test,
    correlation_matrix,
    fisher_z_many,
)
from causalpred.synthgen import NOISE_WIDTH, LinearScm, gen_gam_scm, gen_linear_scm, sample


# The package builds its query universes as rows (``core.ci_query_array``,
# ``np.argwhere``, itertools); these list them as Query objects.


def enumerate_queries(n, kind, cond_size=0):
    """Exhaustive duplicate-free query universe in canonical order."""
    if n < 2:
        raise InvalidSize("need at least two variables")
    if kind == QueryKind.COND_INDEP:
        if cond_size < 0 or cond_size > n - 2:
            raise InvalidSize(f"conditioning size {cond_size} infeasible for n={n}")
        out = []
        for a, b in combinations(range(n), 2):
            rest = [v for v in range(n) if v not in (a, b)]
            for cond in combinations(rest, cond_size):
                out.append(Query.ci(a, b, cond))
        return out
    if cond_size:
        raise InvalidSize("conditioning set only applies to conditional independence")
    if kind == QueryKind.UNORDERED_PAIR:
        return [Query.unordered_pair(a, b) for a, b in combinations(range(n), 2)]
    if kind == QueryKind.ORDERED_PAIR:
        return [
            Query.ordered_pair(a, b)
            for a in range(n)
            for b in range(n)
            if a != b
        ]
    raise InvalidSize(f"cannot enumerate query kind {kind}")


def ci_rows(queries) -> np.ndarray:
    """Conditional-independence queries as an index array, row by row."""
    if any(q.kind != QueryKind.COND_INDEP for q in queries):
        raise InvalidSize("only conditional-independence queries have CI rows")
    width = 2 + max((len(q.cond) for q in queries), default=0)
    out = np.full((len(queries), width), -1, dtype=np.intp)
    for row, q in zip(out, queries):
        row[: 2 + len(q.cond)] = q.members + q.cond
    return out


def scan_parents(g: Dag, v):
    """Parents of v by a scan of the edge set."""
    return {a for a, b in g.edges if b == v}


def scan_children(g: Dag, v):
    return {b for a, b in g.edges if a == v}


def is_polytree(g: Dag) -> int:
    return int(is_polytree_edges(g.n, g.edges))


def moral_d_separated(g: Dag, x, y, z):
    """d-separation via the moralized ancestral graph.

    Restrict to ancestors of {x, y} union z, marry co-parents, drop
    directions, remove z, and check undirected connectivity of x and y.
    """
    relevant = set(z) | {x, y}
    stack = list(relevant)
    while stack:
        for p in scan_parents(g, stack.pop()):
            if p not in relevant:
                relevant.add(p)
                stack.append(p)

    und = set()
    for a, b in g.edges:
        if a in relevant and b in relevant:
            und.add(frozenset((a, b)))
    for v in relevant:
        ps = sorted(p for p in scan_parents(g, v) if p in relevant)
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


def d_connected(g: Dag, x, z) -> set:
    """Every node d-connected to x given z: one Bayes-ball pass (Shachter,
    1998) over per-node sets, the walk that ``models.d_connection_rows``
    runs as one breadth-first search over the states of many rows.

    Entered from a child, a node outside z passes the trail on to its
    parents and children.  Entered from a parent, a node outside z passes
    it on to its children, and a node in z (an observed collider) back to
    its parents.  The result holds x itself unless x is in z.
    """
    z = frozenset(z)
    reached, seen_up, seen_down = set(), set(), set()
    up, down = [x], []  # entered from a child, from a parent
    while up or down:
        while up:
            v = up.pop()
            if v in seen_up:
                continue
            seen_up.add(v)
            if v not in z:
                reached.add(v)
                up.extend(scan_parents(g, v))
                down.extend(scan_children(g, v))
        while down:
            v = down.pop()
            if v in seen_down:
                continue
            seen_down.add(v)
            if v in z:
                up.extend(scan_parents(g, v))
            else:
                reached.add(v)
                down.extend(scan_children(g, v))
    return reached


def ref_d_separated(g: Dag, q):
    """1 iff the CI query's pair is d-separated: one ``d_connected`` pass."""
    x, y = q.members
    return int(y not in d_connected(g, x, q.cond))


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


def markov_equivalent(g1: Dag, g2: Dag) -> int:
    """Same skeleton and same unshielded colliders."""
    if g1.n != g2.n:
        raise InvalidSize("graphs must share the node set")
    return int(g1.skeleton() == g2.skeleton() and v_structures(g1) == v_structures(g2))


def population_covariance(scm: LinearScm) -> np.ndarray:
    """Exact covariance of the induced Gaussian: (I-A)^-1 (I-A)^-T."""
    if not isinstance(scm, LinearScm):
        raise InvalidSize("population covariance is defined for linear SCMs only")
    b = np.linalg.inv(np.eye(scm.n) - scm.coeffs)
    return b @ b.T


def ref_sample(scm, l, seed):
    """``synthgen.sample``'s former loop, as a matrix: x starts at zero and
    each column is set to its noise plus its parents' terms, ancestors
    first, with the noise drawn as a separate matrix."""
    rng = np.random.default_rng(seed)
    x = np.zeros((l, scm.n))
    if isinstance(scm, LinearScm):
        noise = rng.standard_normal((l, scm.n))
        for v in np.argsort(np.asarray(scm.order)):
            x[:, v] = noise[:, v] + x @ scm.coeffs[v]
    else:
        noise = rng.uniform(-NOISE_WIDTH / 2.0, NOISE_WIDTH / 2.0, size=(l, scm.n))
        for v in scm.dag.topological_order():
            x[:, v] = noise[:, v]
            for p in sorted(scm.dag.parents(v)):
                x[:, v] += scm.mechanisms[(p, v)](x[:, p])
    return x


# --- kernel layer: the former dense formulas ----------------------------------
#
# The package centres Grams by their means, builds each Gram once per test
# and selects the median distance without listing the distances; these are
# the direct formulas it replaced: the median of all the distances of the
# pairs i < j, H K H by two dense products with H = I - 1/m, and an
# additive-noise test that recomputes every bandwidth and Gram in each of
# its three steps.


def ref_median_bandwidth(x):
    """sqrt(median / 2) of the positive squared distances of the pairs
    i < j, all listed by ``pdist``; the median of two middle values is
    their mean, inf where their sum overflows."""
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = pdist(x[:, None], "sqeuclidean")
    pos = d2[d2 > 0]
    if pos.size == 0:
        raise DegenerateInput("all points identical")
    mid = pos.size // 2
    pos.partition(mid)
    with np.errstate(over="ignore"):
        median = pos[mid] if pos.size % 2 else (pos[:mid].max() + pos[mid]) / 2
    return float(np.sqrt(0.5 * median))


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


def ref_hsic_p_value(x, y):
    """p-value of the HSIC test under the gamma approximation to its null,
    from scipy's gamma survival function."""
    x, y = _ref_check_pair(x, y)
    _ref_check_nonconstant(x, y)
    stat, mean_hsic, var_hsic = ref_hsic_statistic(x, y)
    if mean_hsic <= 0 or var_hsic <= 0:
        raise DegenerateInput("gamma approximation undefined for this input")
    shape = mean_hsic**2 / var_hsic
    scale = var_hsic * x.size / mean_hsic
    return float(gamma_dist.sf(stat, shape, scale=scale))


def ref_kernel_regress(x, y):
    x, y = _ref_check_pair(x, y)
    _ref_check_nonconstant(x)
    k = _ref_gram(x)
    lam = RIDGE_SCALE * x.size
    yc = y - y.mean()
    alpha_vec = np.linalg.solve(k + lam * np.eye(x.size), yc)
    # the fitted function is evaluated once at each distinct x, so points
    # with equal (x, y) have equal residuals: in k @ alpha_vec, BLAS may
    # round two equal rows of k apart, and a residual squared distance
    # of about 3e-27 where there was 0 moves the median bandwidth of the
    # residual test in ref_anm_test
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    return yc - (k[first] @ alpha_vec)[inverse]


def ref_anm_test(x, y, alpha):
    """(value, residual p-value) of the additive-noise test of x -> y:
    five bandwidths and five Grams, two of them the source's twice."""
    marginal = ref_hsic_p_value(x, y)
    residuals = ref_kernel_regress(x, y)
    resid = ref_hsic_p_value(x, residuals)
    return int(not marginal > alpha and resid > alpha), resid


# --- Fisher-Z: the former inverse path ----------------------------------------
#
# The package takes partial correlations given at most one variable in
# closed form, guards them by the factors of the submatrix determinant and
# takes the two-sided tail as erfc; these are the formulas it replaced for
# every conditioning size: an SVD condition-number guard, a matrix inverse
# and 2 * norm.sf.


def ref_partial_correlation(corr, target_idx, cond_idx):
    idx = list(target_idx) + list(cond_idx)
    sub = corr[np.ix_(idx, idx)]
    if np.linalg.cond(sub) > 1e12:
        raise DegenerateInput("correlation submatrix is singular")
    prec = np.linalg.inv(sub)
    return -prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])


def ref_fisher_z_from_corr(corr, l, target_idx, cond_idx, alpha):
    if not 0.0 < alpha < 1.0:
        raise InvalidParams(f"alpha {alpha} outside (0, 1)")
    n_cond = len(cond_idx)
    if l <= n_cond + 3:
        raise InvalidSize(f"need more than {n_cond + 3} samples")
    r = ref_partial_correlation(corr, target_idx, cond_idx)
    if abs(r) >= 1.0 - VAR_EPS:
        raise DegenerateInput("partial correlation at the +-1 boundary")
    stat = np.sqrt(l - n_cond - 3) * np.arctanh(r)
    p = 2.0 * norm.sf(abs(stat))
    return TestOutcome(binary(1 if p > alpha else 0), float(p), alpha)


# The package's former scalar Fisher-Z, frozen: the closed form in Python
# floats given at most one variable, the submatrix inverse behind a
# condition-number guard given more, and the tail as math.erfc.  The batch
# test that replaced it must give its labels and errors, and its p-values
# to a few units in the last place.


def closed_form_partial_correlation(corr, target_idx, cond_idx):
    a, b = target_idx
    cond = list(cond_idx)
    if len(cond) > 1:
        idx = [a, b] + cond
        sub = corr[np.ix_(idx, idx)]
        if not np.isfinite(sub).all() or np.linalg.cond(sub) > 1e12:
            raise DegenerateInput("correlation submatrix is singular or undefined")
        prec = np.linalg.inv(sub)
        return float(-prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1]))
    r = corr.item(a, b)
    if cond:
        r_ac, r_bc = corr.item(a, cond[0]), corr.item(b, cond[0])
        if not (abs(r_ac) < 1.0 - VAR_EPS and abs(r_bc) < 1.0 - VAR_EPS):
            raise DegenerateInput("conditioning variable collinear with a target")
        r = (r - r_ac * r_bc) / math.sqrt((1.0 - r_ac * r_ac) * (1.0 - r_bc * r_bc))
    return r


def closed_form_fisher_z_from_corr(corr, l, target_idx, cond_idx, alpha):
    if not 0.0 < alpha < 1.0:
        raise InvalidParams(f"alpha {alpha} outside (0, 1)")
    n_cond = len(cond_idx)
    if l <= n_cond + 3:
        raise InvalidSize(f"need more than {n_cond + 3} samples")
    r = closed_form_partial_correlation(corr, target_idx, cond_idx)
    if not abs(r) < 1.0 - VAR_EPS:
        raise DegenerateInput("partial correlation at the +-1 boundary or undefined")
    stat = math.sqrt(l - n_cond - 3) * math.atanh(r)
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return TestOutcome(binary(1 if p > alpha else 0), p, alpha)


# --- risk scoring: the former per-query path ----------------------------------
#
# The harness scores a predictor with one batch call per side and counts
# disagreements in an array; these are the loops it replaced: one scalar
# prediction and one TestOutcome per query, each wrapped in a binary
# PropertyValue and averaged by ref_empirical_error.


def ref_empirical_error(predictions, test_results):
    """Mean absolute deviation between predicted and tested PropertyValues;
    for binary values the disagreement rate ``core.empirical_error`` gives
    on 0/1 arrays."""
    if len(predictions) != len(test_results):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(test_results)} results")
    if not predictions:
        raise LengthMismatch("need at least one prediction")
    total = 0.0
    for p, t in zip(predictions, test_results):
        if p.tag != t.tag:
            raise TagMismatch(f"cannot compare {p.tag} with {t.tag}")
        total += abs(p.value - t.value)
    return total / len(predictions)


def ref_expected_risk(predict, queries, tester):
    """``predict(q)`` gives 0/1 and ``tester(q)`` a TestOutcome, per query."""
    predictions = [binary(predict(q)) for q in queries]
    results = [tester(q).value for q in queries]
    return ref_empirical_error(predictions, results)


def ref_run_ci_experiment(cfg):
    """``harness.run_ci_experiment`` scored query by query with the scalar
    ``ref_d_separated``, ``closed_form_fisher_z_from_corr`` and
    ``ref_empirical_error``."""
    universe = enumerate_queries(cfg.n, QueryKind.COND_INDEP, 0) + enumerate_queries(
        cfg.n, QueryKind.COND_INDEP, 1
    )
    h = vc_upper_bound(ModelClassId.ALL_DAGS, cfg.n)
    records = []
    for rep in range(cfg.repetitions):
        seed = cfg.seed + 1000 * rep
        scm = gen_linear_scm(cfg.n, cfg.expected_degree, seed)
        truth = scm.dag()
        if cfg.oracle:
            cpdag, labels = pc_oracle(truth, cfg.max_cond)

            def tester(q):
                return TestOutcome(binary(ref_d_separated(truth, q)), None, None)

        else:
            data = sample(scm, cfg.l, seed + 1).dataset
            corr = np.corrcoef(data.samples, rowvar=False)
            cpdag, labels = pc_fit(data, cfg.alpha, cfg.max_cond)

            def tester(q):
                return closed_form_fisher_z_from_corr(corr, cfg.l, q.members, q.cond, cfg.alpha)

        g = random_dag_from_cpdag(cpdag, seed + 2)
        empirical = ref_empirical_error(
            [binary(ref_d_separated(g, lq.query)) for lq in labels],
            [lq.outcome.value for lq in labels],
        )
        expected = ref_expected_risk(lambda q: ref_d_separated(g, q), universe, tester)
        records.append(
            RiskRecord(
                "ci", cfg.n, cfg.l, cfg.alpha, len(labels), rep, empirical, expected,
                gap_binary(h, len(labels), cfg.eta), seed,
            )
        )
    return records


def ref_select_alpha(candidates, scms, l, seed=0):
    """``learners.select_alpha`` with one ``closed_form_fisher_z_from_corr``
    test and one reference d-separation per candidate alpha and query."""
    if not candidates:
        raise InvalidSize("need at least one candidate alpha")
    scores = {a: [] for a in candidates}
    for idx, scm in enumerate(scms):
        data = sample(scm, l, seed + idx).dataset
        g = scm.dag()
        corr = np.corrcoef(data.samples, rowvar=False)
        queries = enumerate_queries(g.n, QueryKind.COND_INDEP, 0) + enumerate_queries(
            g.n, QueryKind.COND_INDEP, 1
        )
        for alpha in candidates:
            tp = fp = fn = 0
            for q in queries:
                outcome = closed_form_fisher_z_from_corr(corr, l, q.members, q.cond, alpha)
                predicted_dep = outcome.value.value == 0
                true_dep = ref_d_separated(g, q) == 0
                tp += predicted_dep and true_dep
                fp += predicted_dep and not true_dep
                fn += true_dep and not predicted_dep
            denom = 2 * tp + fp + fn
            scores[alpha].append(2 * tp / denom if denom else 0.0)
    means = {a: float(np.mean(s)) if s else 0.0 for a, s in scores.items()}
    best = max(means.values())
    return min(a for a in candidates if means[a] == best)


def ref_run_anm_experiment(cfg):
    """``harness.run_anm_experiment`` with a dict of outcomes keyed by
    Query, fitted by ``ref_polytree_from_anm`` and scored query by query
    with edge membership and ``ref_empirical_error``."""
    h = vc_upper_bound(ModelClassId.POLYTREES, cfg.n)
    universe = enumerate_queries(cfg.n, QueryKind.ORDERED_PAIR)
    records = []
    for ds in range(cfg.datasets):
        seed = cfg.seed + 100_000 * ds
        scm = gen_gam_scm(cfg.n, cfg.expected_degree, seed)
        data = sample(scm, cfg.l, seed + 1).dataset
        cache = {q: anm_test(data, q, cfg.alpha) for q in universe}
        for k in cfg.k_values:
            for rep in range(cfg.repetitions):
                rep_seed = seed + 10 * rep + 2
                tree, labels = ref_polytree_from_anm(
                    data, k, cfg.alpha, rep_seed, tester=cache.__getitem__
                )

                def predict(q):
                    return int(q.members in tree.edges)

                empirical = ref_empirical_error(
                    [binary(predict(lq.query)) for lq in labels],
                    [lq.outcome.value for lq in labels],
                )
                expected = ref_expected_risk(predict, universe, cache.__getitem__)
                records.append(
                    RiskRecord(
                        "anm", cfg.n, cfg.l, cfg.alpha, k, rep, empirical, expected,
                        gap_binary(h, k, cfg.eta), rep_seed,
                    )
                )
    return records


# --- polytrees: the former learner, one LabeledQuery per drawn test -----------
#
# ``learners.polytree_from_anm`` draws positions, hands the drawn rows to a
# batch tester and keeps the outcomes as an ORDERED_PAIR TestLog; this is
# the learner it replaced, whose ``tester(q)`` returns a TestOutcome.


def ref_polytree_from_anm(d, k, alpha, seed, tester=None):
    pairs = [(a, b) for a in d.columns for b in d.columns if a != b]
    chosen = [Query.ordered_pair(*pairs[i]) for i in sample_queries(range(len(pairs)), k, seed)]
    if tester is None:
        outcomes = {q: anm_test(d, q, alpha) for q in sorted(chosen, key=lambda q: q.members)}
        tester = outcomes.__getitem__
    labels = [LabeledQuery(q, tester(q)) for q in chosen]
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


# --- node pairs: the former Python loops -------------------------------------
#
# ``learners.fit_path_model`` takes each greedy step as one argmax,
# ``LinearScm`` checks its order with one mask and reads its edges from
# ``np.argwhere``.  These are the scans they replaced, which they must
# agree with exactly.


def ref_fit_path_model(d):
    n = len(d.columns)
    check_universe(n, QueryKind.UNORDERED_PAIR)
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


def ref_check_linear_order(n, order, coeffs):
    """Raise what ``LinearScm`` raises for a coefficient against the order."""
    for i in range(n):
        for j in range(n):
            if coeffs[i, j] != 0 and order[j] >= order[i]:
                raise InvalidSize(f"coefficient {j}->{i} violates the node order")


def ref_linear_dag(scm):
    n = scm.n
    return Dag(n, [(j, i) for i in range(n) for j in range(n) if scm.coeffs[i, j] != 0])


# --- CSV: the former per-cell load and csv.writer save ------------------------
#
# ``core.load_dataset`` parses a plain text with one np.loadtxt call and
# keeps this loop for everything else; ``core.save_dataset`` joins repr
# strings.  Both must agree with these exactly.


def ref_load_dataset(path, names_path=None):
    """``csv.reader`` rows, then ``float()`` per cell: the first unparseable
    cell in row-major order is named, else the first non-finite one."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InvalidSize(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if not header:
        raise InvalidSize(f"{path} has no header ids: its first line is blank")
    if not body:
        raise InvalidSize(f"{path} has no data rows")

    name_to_id = {}
    if names_path is not None:
        with open(names_path, encoding="utf-8") as fh:
            obj = load_json(fh)
        names = obj.get("names") if isinstance(obj, dict) else None
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise ParseError(f'{names_path} holds no "names" list of strings')
        name_to_id = {name: i for i, name in enumerate(names)}

    columns = []
    for cell in header:
        cell = cell.strip()
        if cell in name_to_id:
            columns.append(name_to_id[cell])
        else:
            try:
                columns.append(int(cell))
            except ValueError:
                raise NonNumericCell(0, cell) from None
    if len(set(columns)) != len(columns):
        raise DuplicateColumn(f"duplicate header ids in {columns}")

    data = np.empty((len(body), len(columns)))
    for i, row in enumerate(body):
        if len(row) != len(columns):
            raise InvalidSize(f"row {i + 1} has {len(row)} cells, expected {len(columns)}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise NonNumericCell(i + 1, j) from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise NonNumericCell(int(bad[0][0]) + 1, int(bad[0][1]))
    return Dataset(data, tuple(columns))


def ref_save_dataset(d, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(d.columns)
        w.writerows(d.samples.tolist())


# --- orientation: the former edge-set PDAG ------------------------------------
#
# ``models._Pdag`` stores each node's parents, children and undirected
# neighbours, and ``Dag`` walks its own adjacency; these are the edge-set
# scans and hand-written walks they replaced.


class RefPdag:
    """Partially directed graph as one set of directed and one set of
    undirected edges; every rule scans them."""

    def __init__(self, n, directed=(), undirected=()):
        self.n = n
        self.directed = set(directed)
        self.undirected = {frozenset(e) for e in undirected}

    def adjacent(self, a, b):
        return (
            (a, b) in self.directed
            or (b, a) in self.directed
            or frozenset((a, b)) in self.undirected
        )

    def creates_cycle(self, a, b):
        stack, seen = [b], set()
        while stack:
            u = stack.pop()
            if u == a:
                return True
            if u in seen:
                continue
            seen.add(u)
            stack.extend(c for (p, c) in self.directed if p == u)
        return False

    def orient(self, a, b):
        e = frozenset((a, b))
        if e not in self.undirected or (b, a) in self.directed or self.creates_cycle(a, b):
            return False
        self.undirected.discard(e)
        self.directed.add((a, b))
        return True

    def apply_meek_rules(self):
        changed = True
        while changed:
            changed = False
            for e in sorted(self.undirected, key=sorted):
                a, b = sorted(e)
                for x, y in ((a, b), (b, a)):
                    if self._meek_applies(x, y) and self.orient(x, y):
                        changed = True
                        break
                if changed:
                    break

    def _meek_applies(self, x, y):
        for w, v in self.directed:
            if v == x and w != y and not self.adjacent(w, y):
                return True
        for v in range(self.n):
            if (x, v) in self.directed and (v, y) in self.directed:
                return True
        into_y = [v for (v, u) in self.directed if u == y]
        for v, w in combinations(sorted(into_y), 2):
            if (
                frozenset((x, v)) in self.undirected
                and frozenset((x, w)) in self.undirected
                and not self.adjacent(v, w)
            ):
                return True
        for v, u in self.directed:
            if u != y:
                continue
            for w, vv in self.directed:
                if vv != v:
                    continue
                if (
                    frozenset((x, w)) in self.undirected
                    and self.adjacent(x, v)
                    and not self.adjacent(w, y)
                ):
                    return True
        return False

    def to_cpdag(self):
        return Cpdag(self.n, self.directed, self.undirected)


def unguarded_meek_rules(pdag):
    """``models._Pdag.apply_meek_rules`` before it skipped the undirected
    edges with no parent at either end: R1-R4 tried on every edge, both
    ways, restarting after each orientation."""
    while any(
        pdag._meek_applies(x, y) and pdag.orient(x, y)
        for a, b in pdag.undirected_edges()
        for x, y in ((a, b), (b, a))
    ):
        pass


def ref_random_dag_from_cpdag(c, seed):
    rng = np.random.default_rng(seed)
    pdag = RefPdag(c.n, c.directed, c.undirected)
    while pdag.undirected:
        pdag.apply_meek_rules()
        if not pdag.undirected:
            break
        e = sorted(pdag.undirected, key=sorted)[rng.integers(len(pdag.undirected))]
        a, b = sorted(e)
        if rng.random() < 0.5:
            a, b = b, a
        if not pdag.orient(a, b):
            pdag.orient(b, a)
    return Dag(c.n, pdag.directed)


def ref_cpdag_from_dag(g):
    pdag = RefPdag(g.n, undirected=g.skeleton())
    for a, c, b in v_structures(g):
        pdag.orient(a, c)
        pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag()


def ref_ancestors(g, v):
    """Proper ancestors of v by a parent-scan DFS."""
    out = set()
    stack = list(scan_parents(g, v))
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(scan_parents(g, u))
    return out


def ref_has_path(g, i, j):
    stack, seen = [i], set()
    while stack:
        u = stack.pop()
        if u == j:
            return True
        if u in seen:
            continue
        seen.add(u)
        stack.extend(scan_children(g, u))
    return False


# --- PC: the former skeleton and v-structure loops ------------------------------
#
# ``learners.pc_from_ci`` scans each level once, up to min(max_cond, n - 2),
# and orients from its separating sets; this is the loop it replaced, which
# repeated a level until a pass removed nothing, ran every level up to
# max_cond and scanned all pairs for v-structures.


def ref_pc_from_ci(n, ci_test, max_cond):
    adjacency = {v: set(range(n)) - {v} for v in range(n)}
    sepset = {}
    log = {}

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


def scalar_labeller(ci_test):
    """A scalar tester ``ci_test(a, b, cond)`` as the batch labeller
    ``learners.pc_from_ci`` takes: every row of a level is tested when PC
    asks for the level, and the p-values are None when the tester gives
    none."""

    def label(rows):
        outs = [ci_test(a, b, tuple(cond)) for a, b, *cond in rows.tolist()]
        labels = np.array([out.value.value for out in outs], dtype=np.int64)
        p = [out.p_value for out in outs]
        return labels, None if p[0] is None else np.array(p)

    return label


# --- PC's level 0: the former scan ------------------------------------------
#
# ``learners.pc_from_ci`` runs level 0 as arrays and keeps its adjacency in
# one boolean matrix; this is the function it replaced, which scanned level
# 0 pair by pair as it scans the levels above, on a dict of neighbour sets.


def scan_pc_from_ci(n, label, max_cond, *, alpha=None, refuse=None):
    if max_cond < 0:
        raise InvalidSize("max_cond must be nonnegative")
    adjacency = {v: set(range(n)) - {v} for v in range(n)}
    sepset = {}
    levels = []
    for level in range(min(max_cond, n - 2) + 1):
        neighbours = [sorted(adjacency[v]) if level else () for v in range(n)]
        tests = [
            (a, b, cond)
            for a, b in combinations(range(n), 2)
            if b in adjacency[a]
            for cond in combinations(neighbours[a], level)
            if b not in cond
        ]
        if not tests:
            break
        rows = np.array([(a, b, *cond) for a, b, cond in tests], dtype=np.intp)
        labels, p = label(rows)
        consulted = []
        for i, ((a, b, cond), flag) in enumerate(zip(tests, labels.tolist())):
            if b not in adjacency[a] or not adjacency[a].issuperset(cond):
                continue
            if flag < 0:
                refuse(rows[i])
            consulted.append(i)
            if flag == 1:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
                sepset[a, b] = cond
        levels.append((rows[consulted], labels[consulted], None if p is None else p[consulted]))
    pdag = _Pdag(n, undirected=[(a, b) for a, b in combinations(range(n), 2) if b in adjacency[a]])
    for (a, b), cond in sorted(sepset.items()):
        for c in sorted(adjacency[a] & adjacency[b]):
            if c not in cond:
                pdag.orient(a, c)
                pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag(), _join_levels(levels, alpha)


# --- PC's log: the former LabeledQuery per consulted test ----------------------
#
# ``learners.pc_from_ci`` keeps the consulted rows, labels and p-values as
# arrays; this is the loop it replaced, with a labeller that returns
# ``outcome``, where ``outcome(i)`` builds row i's TestOutcome, and a log
# of one LabeledQuery per consulted test.


def labelled_pc_from_ci(n, label, max_cond):
    if max_cond < 0:
        raise InvalidSize("max_cond must be nonnegative")
    adjacency = {v: set(range(n)) - {v} for v in range(n)}
    sepset = {}
    log = []
    for level in range(min(max_cond, n - 2) + 1):
        tests = [
            (a, b, cond)
            for a, b in combinations(range(n), 2)
            if b in adjacency[a]
            for cond in combinations(sorted(adjacency[a] - {b}), level)
        ]
        if not tests:
            break
        outcome = label(np.array([(a, b, *cond) for a, b, cond in tests], dtype=np.intp))
        for i, (a, b, cond) in enumerate(tests):
            if b not in adjacency[a] or not adjacency[a].issuperset(cond):
                continue
            out = outcome(i)
            log.append(LabeledQuery(Query.ci(a, b, cond), out))
            if out.value.value == 1:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
                sepset[a, b] = cond
    pdag = _Pdag(n, undirected=[(a, b) for a, b in combinations(range(n), 2) if b in adjacency[a]])
    for (a, b), cond in sorted(sepset.items()):
        for c in sorted(adjacency[a] & adjacency[b]):
            if c not in cond:
                pdag.orient(a, c)
                pdag.orient(b, c)
    pdag.apply_meek_rules()
    return pdag.to_cpdag(), log


def labelled_pc_fit(d, alpha, max_cond):
    """``learners.pc_fit`` through ``labelled_pc_from_ci``."""
    corr = correlation_matrix(d)
    pos = np.argsort(d.columns)
    corr = corr[np.ix_(pos, pos)]

    def label(rows):
        labels, p, fail = _fisher_z(corr, d.l, rows, alpha)

        def outcome(i):
            if fail[i]:
                fisher_z_many(corr, d.l, rows[i : i + 1], alpha)
            return TestOutcome(binary(int(labels[i])), float(p[i]), alpha)

        return outcome

    return labelled_pc_from_ci(len(d.columns), label, max_cond)


def labelled_pc_oracle(g, max_cond):
    """``learners.pc_oracle`` through ``labelled_pc_from_ci``."""

    def label(rows):
        labels = d_separated_many(g, rows)
        return lambda i: TestOutcome(binary(int(labels[i])), None, None)

    return labelled_pc_from_ci(g.n, label, max_cond)


def ref_write_labels(log, path):
    """``causalpred fit --labels``'s former writer: a CSV row per
    LabeledQuery of the learner's log, through ``format_query``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("query", "outcome", "p_value"))
        w.writerows(
            (
                format_query("anm" if lq.query.kind == QueryKind.ORDERED_PAIR else "ci", lq.query),
                lq.outcome.value.value,
                lq.outcome.p_value,
            )
            for lq in log
        )


# --- the CLI's query grammar, written ------------------------------------------
#
# The CLI writes queries only from a TestLog's arrays; these are the former
# writer's inverse of ``cli.parse_query``, kept for the round-trip tests.

PREFIX_KIND = {
    "ci": QueryKind.COND_INDEP,
    "anm": QueryKind.ORDERED_PAIR,
    "dir": QueryKind.ORDERED_PAIR,
    "corr": QueryKind.UNORDERED_PAIR,
    "sign": QueryKind.UNORDERED_PAIR,
    "lingam": QueryKind.ORDERED_TUPLE,
}


def format_query(prefix, q):
    """Inverse of parse_query: the query text that parses to (prefix, q)."""
    if PREFIX_KIND.get(prefix) != q.kind:
        raise ParseError(f"query kind {prefix!r} does not match a {q.kind.value} query")
    if prefix == "ci":
        a, b = q.members
        return f"ci:{a},{b}|{','.join(map(str, q.cond))}"
    if q.kind == QueryKind.ORDERED_PAIR:
        return f"{prefix}:{q.members[0]}->{q.members[1]}"
    return f"{prefix}:{','.join(map(str, q.members))}"


# --- VC dimension -------------------------------------------------------------


def exact_vc_dimension(functions):
    """The size of the largest set of query positions that the 0/1 label
    vectors ``functions`` shatter, i.e. on which they realise all 2^s
    labellings.  Every subset of a shattered set is shattered, so level
    s + 1 only tries the extensions of shattered s-sets whose every
    s-subset is shattered."""
    labels = np.unique(np.asarray(functions, dtype=np.int64), axis=0)
    shattered, size = [()], 0
    while shattered and len(labels) >= 2 ** (size + 1):
        known = set(shattered)
        grown = []
        for s in shattered:
            for j in range(s[-1] + 1 if s else 0, labels.shape[1]):
                t = s + (j,)
                if any(t[:i] + t[i + 1 :] not in known for i in range(len(t) - 1)):
                    continue
                codes = labels[:, t] @ (1 << np.arange(len(t)))
                if len(np.unique(codes)) == 2 ** len(t):
                    grown.append(t)
        if grown:
            size += 1
        shattered = grown
    return size
