"""Acceptance suite: one test per criterion.

The conftest terminal-summary hook prints one ``CRITERION n: PASS/FAIL``
line per test in this file at the end of the run.
"""

import itertools
import math
import time

import numpy as np

from causalpred.bounds import (
    ModelClassId,
    all_dags,
    brute_force_vc_check,
    count_queries,
    gap_binary,
    min_training_sets,
    vc_upper_bound,
)
from causalpred.core import Dataset, Query, QueryKind
from causalpred.harness import ExperimentConfig, run_anm_experiment, run_ci_experiment, summarize
from causalpred.learners import fit_path_model
from causalpred.models import (
    d_separated,
    glue_gaussian_chain,
    is_polytree_edges,
    path_corr,
)
from causalpred.stattests import anm_test, fisher_z_ci, hsic_independence
from causalpred.synthgen import gen_gam_chain, sample
from oracles import enumerate_queries, moral_d_separated, random_dag


def test_criterion_1_d_separation_oracle_equivalence():
    start = time.time()
    disagreements = 0
    for i in range(200):
        n = 3 + i % 4  # n in 3..6
        g = random_dag(n, seed=i)
        for a, b in itertools.combinations(range(n), 2):
            rest = [v for v in range(n) if v not in (a, b)]
            for size in range(min(2, len(rest)) + 1):
                for cond in itertools.combinations(rest, size):
                    got = d_separated(g, Query.ci(a, b, cond))
                    want = moral_d_separated(g, a, b, set(cond))
                    disagreements += got != want
    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_vc_lemma_cross_checks():
    for n in (2, 3, 4):
        for c in (
            ModelClassId.ALL_DAGS,
            ModelClassId.POLYTREES,
            ModelClassId.PATH_SIGN,
            ModelClassId.DIRECTIONALITY,
        ):
            count = brute_force_vc_check(c, n)
            bound = vc_upper_bound(c, n)
            assert math.log2(count) <= bound, (
                f"{c.value} at n={n}: the class realizes {count} distinct "
                f"functions, log2 = {math.log2(count):.2f} > bound {bound:.2f}; "
                "the bound limits shattering, not function cardinality"
            )
    # orientations of one tree skeleton fall into at most 2^(n-1)-n+1
    # Markov classes
    for n in (3, 4):
        queries = []
        for cond_size in range(n - 1):
            queries.extend(enumerate_queries(n, QueryKind.COND_INDEP, cond_size))
        by_skeleton = {}
        for g in all_dags(n):
            if not is_polytree_edges(n, g.edges):
                continue
            fn = tuple(d_separated(g, q) for q in queries)
            by_skeleton.setdefault(g.skeleton(), set()).add(fn)
        for skel, classes in by_skeleton.items():
            if len(skel) == n - 1:
                assert len(classes) <= 2 ** (n - 1) - n + 1, (n, skel)


def test_criterion_3_budget_crossover():
    start = time.time()
    possible = {n: count_queries(n, QueryKind.COND_INDEP, 1) for n in range(4, 301)}
    needed = {
        n: min_training_sets(ModelClassId.POLYTREES, n, eps=0.1, eta=0.1)
        for n in possible
    }
    crossings = [
        n for n in range(5, 301) if needed[n - 1] >= possible[n - 1] and needed[n] < possible[n]
    ]
    ratio_100 = needed[100] / possible[100]
    elapsed = time.time() - start
    assert elapsed < 1.0, f"planner sweep took {elapsed:.1f}s"
    assert any(40 <= n <= 60 for n in crossings), (
        f"budget/universe crossover at {crossings or 'none below 300'}, "
        f"not in [40, 60]; ratio at n=100 is {ratio_100:.2f}"
    )
    assert ratio_100 < 0.3, f"ratio at n=100 is {ratio_100:.2f}, expected < 0.3"


def test_criterion_4_gap_numerics():
    # independent evaluation: 2 sqrt((h(ln(2k/h)+1) - ln(eta/9)) / k)
    h, k, eta = 10, 1000, 0.1
    by_hand = 2.0 * math.sqrt((h * (math.log(2 * k / h) + 1) - math.log(eta / 9)) / k)
    assert abs(gap_binary(h, k, eta) - by_hand) < 1e-12
    assert abs(gap_binary(10, 1000, 0.1) - 0.5196) <= 0.001
    # monotonicity grid
    for h in (5, 10, 40):
        for eta in (0.05, 0.1, 0.5):
            gaps = [gap_binary(h, k, eta) for k in (100, 400, 1600, 6400)]
            assert gaps == sorted(gaps, reverse=True), (h, eta, gaps)
    for k in (500, 2000):
        for eta in (0.05, 0.2):
            assert gap_binary(5, k, eta) <= gap_binary(20, k, eta) <= gap_binary(80, k, eta)
        assert gap_binary(10, k, 0.05) >= gap_binary(10, k, 0.1) >= gap_binary(10, k, 0.5)


def test_criterion_5_ci_experiment_reproduction():
    start = time.time()
    means = {}
    for n in (10, 20):
        cfg = ExperimentConfig("ci", n=n, l=10000, alpha=0.001, repetitions=20, seed=7)
        records = run_ci_experiment(cfg)
        h = vc_upper_bound(ModelClassId.ALL_DAGS, n)
        for r in records:
            assert r.gap <= gap_binary(h, r.k, cfg.eta) + 1e-12, (n, r)
        means[n] = float(np.mean([r.gap for r in records]))
    elapsed = time.time() - start
    assert means[20] <= means[10] + 0.02, means
    assert elapsed < 900.0, f"ci experiments took {elapsed:.0f}s"


def test_criterion_6_anm_experiment_reproduction():
    start = time.time()
    cfg = ExperimentConfig(
        "anm",
        n=10,
        l=600,
        alpha=0.05,
        repetitions=20,
        seed=11,
        k_values=(10, 30, 60, 90),
        datasets=3,
    )
    records = run_anm_experiment(cfg)
    stats = summarize(records)
    elapsed = time.time() - start
    assert stats[90]["mean_gap"] == 0.0, stats
    assert stats[60]["mean_gap"] <= stats[10]["mean_gap"] + 0.03, stats
    h = vc_upper_bound(ModelClassId.POLYTREES, cfg.n)
    for k in cfg.k_values:
        assert stats[k]["q90_gap"] <= gap_binary(h, k, cfg.eta) + 1e-12, (k, stats[k])
    assert elapsed < 1800.0, f"anm experiment took {elapsed:.0f}s"


def test_criterion_7_additive_noise_non_transitivity():
    accept = {(0, 1): 0, (1, 2): 0, (0, 2): 0}
    seeds = 50
    for s in range(seeds):
        scm = gen_gam_chain(3, seed=s)
        d = sample(scm, 600, seed=10_000 + s).dataset
        for pair in accept:
            out = anm_test(d, Query.ordered_pair(*pair), 0.05)
            accept[pair] += out.value.value
    assert accept[(0, 1)] >= 0.9 * seeds, accept
    assert accept[(1, 2)] >= 0.9 * seeds, accept
    assert accept[(0, 2)] <= 0.1 * seeds, accept


def test_criterion_8_test_calibration():
    alpha = 0.05
    rejections = 0
    for s in range(2000):
        rng = np.random.default_rng(s)
        d = Dataset(rng.standard_normal((500, 2)), (0, 1))
        rejections += fisher_z_ci(d, Query.ci(0, 1), alpha).value.value == 0
    rate = rejections / 2000
    assert abs(rate - alpha) <= 0.03, f"fisher false-rejection rate {rate:.3f}"

    rejections = 0
    for s in range(500):
        rng = np.random.default_rng(100_000 + s)
        out = hsic_independence(rng.uniform(size=200), rng.uniform(size=200), alpha)
        rejections += out.value.value == 0
    rate = rejections / 500
    assert abs(rate - alpha) <= 0.03, f"hsic false-rejection rate {rate:.3f}"


def test_criterion_9_chain_gluing():
    cov_xy = np.array([[1.0, 0.5], [0.5, 1.0]])
    cov_yz = np.array([[1.0, 0.4], [0.4, 1.0]])
    glued = glue_gaussian_chain(cov_xy, cov_yz)
    assert glued[0, 2] == 0.5 * 0.4 / 1.0  # exact arithmetic
    assert np.linalg.eigvalsh(glued).min() >= -1e-9
    # marginals reproduced bit-exactly
    assert np.array_equal(glued[:2, :2], cov_xy)
    assert np.array_equal(glued[1:, 1:], cov_yz)

    seeds = 60
    accepted = 0
    for s in range(seeds):
        rng = np.random.default_rng(s)
        data = rng.multivariate_normal(np.zeros(3), glued, size=100_000)
        d = Dataset(data, (0, 1, 2))
        accepted += fisher_z_ci(d, Query.ci(0, 2, (1,)), 0.01).value.value == 1
    assert accepted >= 0.95 * seeds, f"accepted {accepted}/{seeds}"


def test_criterion_10_path_predictor_recovery():
    rs = (0.8, -0.75, 0.7, 0.85, -0.7)
    n, l = 6, 10_000
    cov = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            cov[i, j] = cov[j, i] = float(np.prod(rs[i:j]))
    recovered = 0
    deviation_tol = 3 / math.sqrt(l) + 0.05
    for s in range(100):
        rng = np.random.default_rng(s)
        d = Dataset(rng.multivariate_normal(np.zeros(n), cov, size=l), tuple(range(n)))
        m = fit_path_model(d)
        if list(m.order) not in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]):
            continue
        recovered += 1
        corr = np.corrcoef(d.samples, rowvar=False)
        for i in range(n):
            for j in range(i + 2, n):  # non-adjacent pairs only
                pred = path_corr(m, Query.unordered_pair(i, j))
                assert abs(pred - corr[i, j]) < deviation_tol, (s, i, j, pred, corr[i, j])
    assert recovered >= 95, f"order recovered in {recovered}/100 seeds"
