"""Independent computations that the benchmark checks program outputs against.

Nothing here imports ``causalpred``: every reference is computed from raw
samples, edge lists and numbers with numpy and the standard library, by a
different route than the package takes.  Each ``check_*`` function takes the
program's answers next to the inputs they came from and returns a list of
failure messages; an empty list means every answer agreed.
"""

from __future__ import annotations

import math

import numpy as np

# --- Fisher-Z -----------------------------------------------------------------


def ols_fisher_z_pvalue(samples, i, j, cond):
    """Two-sided Fisher-Z p-value of columns i, j given ``cond``.

    The partial correlation is the correlation of the OLS residuals of
    both columns on an intercept plus the conditioning columns; the
    p-value is erfc(|z| / sqrt 2) with z = sqrt(l - |cond| - 3) artanh(r).
    """
    l = samples.shape[0]
    design = np.column_stack([np.ones(l)] + [samples[:, c] for c in cond])
    resid = []
    for col in (i, j):
        y = samples[:, col]
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid.append(y - design @ beta)
    ri, rj = resid
    r = float(ri @ rj / math.sqrt(float(ri @ ri) * float(rj @ rj)))
    z = math.sqrt(l - len(cond) - 3) * math.atanh(r)
    return math.erfc(abs(z) / math.sqrt(2.0))


def check_fisher_z(samples, answers, tol=1e-8):
    """``answers``: (i, j, cond, program p-value) over sample columns."""
    out = []
    for i, j, cond, p in answers:
        ref = ols_fisher_z_pvalue(samples, i, j, cond)
        if not abs(p - ref) <= tol:
            out.append(f"fisher-z p({i},{j}|{list(cond)}) = {p!r}, OLS reference {ref!r}")
    return out


# --- d-separation -------------------------------------------------------------


def moral_d_separated(n, edges, x, y, z):
    """1 iff x and y are separated by z in the moralized ancestral graph."""
    parents = {v: set() for v in range(n)}
    for a, b in edges:
        parents[b].add(a)
    relevant = set(z) | {x, y}
    stack = list(relevant)
    while stack:
        for p in parents[stack.pop()]:
            if p not in relevant:
                relevant.add(p)
                stack.append(p)
    adj = {v: set() for v in relevant}
    for v in relevant:
        ps = sorted(parents[v])  # parents of a relevant node are relevant
        for p in ps:
            adj[p].add(v)
            adj[v].add(p)
        for a_idx, a in enumerate(ps):
            for b in ps[a_idx + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    blocked = set(z)
    seen, stack = {x}, [x]
    while stack:
        u = stack.pop()
        if u == y:
            return 0
        for w in adj[u] - seen - blocked:
            seen.add(w)
            stack.append(w)
    return 1


def check_d_separation(n, edges, answers):
    """``answers``: (x, y, cond, program answer) on the DAG ``edges``."""
    out = []
    for x, y, cond, ans in answers:
        ref = moral_d_separated(n, edges, x, y, cond)
        if ans != ref:
            out.append(f"d-separation ({x},{y}|{list(cond)}) = {ans}, moral graph says {ref}")
    return out


# --- HSIC ---------------------------------------------------------------------


def _centred_gram(v):
    d2 = np.subtract.outer(v, v) ** 2
    pos = d2[d2 > 0]
    bandwidth_sq = 0.5 * float(np.median(pos))
    k = np.exp(-d2 / (2.0 * bandwidth_sq))
    # H K H without the m x m products: subtract row and column means,
    # add back the grand mean
    return k - k.mean(axis=0)[None, :] - k.mean(axis=1)[:, None] + k.mean()


def hsic_v_statistic(x, y):
    """Biased HSIC V-statistic m * HSIC with median-heuristic Gaussian
    kernels, centring by row and column means in O(m^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(_centred_gram(x) * _centred_gram(y))) / x.size


def check_hsic(answers, rtol=1e-9):
    """``answers``: (x, y, program statistic)."""
    out = []
    for idx, (x, y, stat) in enumerate(answers):
        ref = hsic_v_statistic(x, y)
        if not abs(stat - ref) <= rtol * abs(ref):
            out.append(f"hsic pair {idx}: statistic {stat!r}, centring identity {ref!r}")
    return out


# --- polytrees and risks ------------------------------------------------------


def is_forest(n, edges):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def check_polytrees(n, fits):
    """``fits``: (edges, labels) with labels as (source, target, accepted)."""
    out = []
    for idx, (edges, labels) in enumerate(fits):
        if not is_forest(n, edges):
            out.append(f"fit {idx}: skeleton of {sorted(edges)} has a cycle")
        accepted = {(s, t) for s, t, ok in labels if ok}
        stray = sorted(set(edges) - accepted)
        if stray:
            out.append(f"fit {idx}: edges {stray} are not accepted tests of its training set")
    return out


def check_full_universe_risk(records, universe_size):
    """``records``: (k, empirical, expected); at k = the whole universe the
    training set is the universe, so both risks must be equal."""
    out = []
    full = [r for r in records if r[0] == universe_size]
    if not full:
        out.append(f"no record at k = {universe_size}")
    for k, emp, exp in full:
        if emp != exp:
            out.append(f"k = {k}: empirical {emp!r} != expected {exp!r}")
    return out


# --- bounds -------------------------------------------------------------------


def vc_all_dags(n):
    """log2 of n! 2^(n(n-1)/2) bounded by n log2 n + n(n-1)/2."""
    return n * math.log2(n) + n * (n - 1) / 2.0


def vc_polytrees(n):
    return n * (math.log2(n) + 1.0)


def gap_binary(h, k, eta):
    """2 sqrt((h (ln(2k/h) + 1) - ln(eta/9)) / k), clamped to [0, 1]."""
    if 2.0 * k <= h:
        return 1.0
    return min(1.0, 2.0 * math.sqrt((h * (math.log(2.0 * k / h) + 1.0) - math.log(eta / 9.0)) / k))


def check_gaps(records, h, eta):
    """``records``: (k, gap, reported bound); the reported bound must be
    the closed form, and each gap must stay at or below it."""
    out = []
    for k, gap, reported in records:
        bound = gap_binary(h, k, eta)
        if not abs(reported - bound) <= 1e-12:
            out.append(f"k = {k}: reported bound {reported!r}, closed form {bound!r}")
        if not gap <= bound:
            out.append(f"k = {k}: gap {gap!r} above gap_binary {bound!r}")
    return out


def check_bound_report(report, n, k, eta, empirical):
    """The ``bound --class alldags`` JSON against the closed form."""
    h = vc_all_dags(n)
    gap = gap_binary(h, k, eta)
    out = []
    for key, ref in (("h", h), ("gap", gap), ("bound", empirical + gap)):
        if not abs(report[key] - ref) <= 1e-12 * max(1.0, abs(ref)):
            out.append(f"bound report {key} = {report[key]!r}, closed form {ref!r}")
    return out


def check_plan_report(report, n, eps, eta):
    """The ``plan --class polytrees`` JSON: min_k is the smallest k whose
    gap is at most eps, against the order-1 CI universe of n variables."""
    h = vc_polytrees(n)
    k = report["min_k"]
    possible = n * (n - 1) // 2 * (n - 2)
    out = []
    if not (gap_binary(h, k, eta) <= eps and (k == 1 or gap_binary(h, k - 1, eta) > eps)):
        out.append(f"plan min_k = {k} is not the smallest k with gap <= {eps}")
    if report["possible_tests"] != possible:
        out.append(f"plan possible_tests = {report['possible_tests']}, expected {possible}")
    return out


# --- files written by the CLI -------------------------------------------------


def read_csv_matrix(path):
    """Header of integer ids and a float matrix, parsed line by line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = [int(c) for c in lines[0].split(",")]
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if line]
    return header, np.array(rows)


def check_csv_equals(path, expected, columns):
    header, data = read_csv_matrix(path)
    out = []
    if header != list(columns):
        out.append(f"{path}: header {header} != {list(columns)}")
    elif data.shape != expected.shape or not np.array_equal(data, expected):
        diff = "shape" if data.shape != expected.shape else int(np.sum(data != expected))
        out.append(f"{path}: cells differ from the sampler output ({diff})")
    return out


def check_path_corr(data, order, a, b, value):
    """Product of adjacent sample correlations between a and b along ``order``."""
    corr = np.corrcoef(data, rowvar=False)
    pa, pb = sorted((order.index(a), order.index(b)))
    ref = 1.0
    for p in range(pa, pb):
        ref *= float(corr[order[p], order[p + 1]])
    if not abs(value - ref) <= 1e-12:
        return [f"predict corr:{a},{b} = {value!r}, adjacent-correlation product {ref!r}"]
    return []


def check_label_count(path, count):
    with open(path, encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    if rows != count:
        return [f"{path} has {rows} label rows, fit reported {count}"]
    return []
