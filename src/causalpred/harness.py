"""End-to-end simulation experiments with generalization-bound overlays.

Two studies: empirical vs. expected risk of a DAG fitted by PC as a
predictor of conditional-independence test outcomes, and of a polytree
fitted from bivariate additive-noise tests as a predictor of further
additive-noise tests.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .bounds import ModelClassId, gap_binary, vc_upper_bound
from .core import Query, QueryKind, binary, empirical_error, enumerate_queries
from .errors import InvalidParams
from .learners import pc_fit, pc_oracle, polytree_from_anm
from .models import d_separated, q_anm_polytree, random_dag_from_cpdag
from .stattests import TestOutcome, anm_test, correlation_matrix, fisher_z_from_corr
from .synthgen import gen_gam_scm, gen_linear_scm, sample


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # "ci" or "anm"
    n: int = 20
    l: int = 10000
    alpha: float = 0.001
    eta: float = 0.1
    repetitions: int = 20
    seed: int = 0
    max_cond: int = 1  # ci experiment
    k_values: tuple = ()  # anm experiment
    datasets: int = 5
    expected_degree: float = 1.5
    oracle: bool = False  # ci: replace tests by d-separation truth
    # anm overlay: "polytrees", or "directionality" (the directed-path class,
    # whose bound also covers polytree edge membership, only more loosely)
    bound_class: str = "polytrees"

    def __post_init__(self):
        if self.experiment not in ("ci", "anm"):
            raise InvalidParams(f"unknown experiment {self.experiment!r}")
        if self.repetitions < 1 or self.datasets < 1:
            raise InvalidParams("need at least one repetition and dataset")

    @staticmethod
    def from_json(obj):
        if "k_values" in obj:
            obj = dict(obj, k_values=tuple(obj["k_values"]))
        return ExperimentConfig(**obj)


@dataclass(frozen=True)
class RiskRecord:
    experiment: str
    n: int
    l: int
    alpha: float
    k: int
    rep: int
    empirical: float
    expected: float
    bound_unscaled: float
    seed: int

    @property
    def gap(self):
        return abs(self.empirical - self.expected)


CSV_COLUMNS = (
    "experiment",
    "n",
    "l",
    "alpha",
    "k",
    "rep",
    "empirical",
    "expected",
    "gap",
    "bound_unscaled",
    "seed",
)


def write_records(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows([getattr(r, c) for c in CSV_COLUMNS] for r in records)


def expected_risk(predict, queries, tester) -> float:
    """Disagreement of a predictor against a tester on a query universe."""
    predictions = [binary(predict(q)) for q in queries]
    results = [tester(q).value for q in queries]
    return empirical_error(predictions, results)


def run_ci_experiment(cfg: ExperimentConfig):
    """Per dataset: fit PC, extend to a DAG, compare the risk on the
    queries PC actually executed with the risk on the full universe of
    marginal and one-variable-conditioned queries."""
    if cfg.experiment != "ci":
        raise InvalidParams("config is not a ci experiment")
    records = []
    universe = enumerate_queries(cfg.n, QueryKind.COND_INDEP, 0) + enumerate_queries(
        cfg.n, QueryKind.COND_INDEP, 1
    )
    h = vc_upper_bound(ModelClassId.ALL_DAGS, cfg.n)
    for rep in range(cfg.repetitions):
        seed = cfg.seed + 1000 * rep
        scm = gen_linear_scm(cfg.n, cfg.expected_degree, seed)
        truth = scm.dag()
        if cfg.oracle:
            cpdag, labels = pc_oracle(truth, cfg.max_cond)

            def tester(q):
                return TestOutcome(binary(d_separated(truth, q)), None, None)

        else:
            data = sample(scm, cfg.l, seed + 1).dataset
            corr = correlation_matrix(data)
            cpdag, labels = pc_fit(data, cfg.alpha, cfg.max_cond)

            def tester(q):
                return fisher_z_from_corr(corr, cfg.l, q.members, q.cond, cfg.alpha)

        g = random_dag_from_cpdag(cpdag, seed + 2)
        empirical = empirical_error(
            [binary(d_separated(g, lq.query)) for lq in labels],
            [lq.outcome.value for lq in labels],
        )
        expected = expected_risk(lambda q: d_separated(g, q), universe, tester)
        k_used = len(labels)
        records.append(
            RiskRecord(
                "ci",
                cfg.n,
                cfg.l,
                cfg.alpha,
                k_used,
                rep,
                empirical,
                expected,
                gap_binary(h, k_used, cfg.eta),
                seed,
            )
        )
    return records


def run_anm_experiment(cfg: ExperimentConfig):
    """Per joint dataset: cache the additive-noise test outcome of every
    ordered pair once, then fit polytrees from k-subsets across
    repetitions and record empirical vs. expected risk."""
    if cfg.experiment != "anm":
        raise InvalidParams("config is not an anm experiment")
    if not cfg.k_values:
        raise InvalidParams("anm experiment needs k_values")
    class_id = ModelClassId(cfg.bound_class)
    h = vc_upper_bound(class_id, cfg.n)
    universe = enumerate_queries(cfg.n, QueryKind.ORDERED_PAIR)
    records = []
    for ds in range(cfg.datasets):
        seed = cfg.seed + 100_000 * ds
        scm = gen_gam_scm(cfg.n, cfg.expected_degree, seed)
        data = sample(scm, cfg.l, seed + 1).dataset
        cache = {q: anm_test(data, q, cfg.alpha) for q in universe}
        tester = cache.__getitem__
        for k in cfg.k_values:
            for rep in range(cfg.repetitions):
                rep_seed = seed + 10 * rep + 2
                tree, labels = polytree_from_anm(
                    data, k, cfg.alpha, rep_seed, tester=tester
                )
                empirical = empirical_error(
                    [binary(q_anm_polytree(tree, lq.query)) for lq in labels],
                    [lq.outcome.value for lq in labels],
                )
                expected = expected_risk(
                    lambda q: q_anm_polytree(tree, q), universe, tester
                )
                records.append(
                    RiskRecord(
                        "anm",
                        cfg.n,
                        cfg.l,
                        cfg.alpha,
                        k,
                        rep,
                        empirical,
                        expected,
                        gap_binary(h, k, cfg.eta),
                        rep_seed,
                    )
                )
    return records


def run_experiment(cfg: ExperimentConfig):
    if cfg.experiment == "ci":
        return run_ci_experiment(cfg)
    return run_anm_experiment(cfg)


def summarize(records):
    """Mean and 90% quantile of the gap, grouped by k."""
    by_k = {}
    for r in records:
        by_k.setdefault(r.k, []).append(r.gap)
    return {
        k: {
            "mean_gap": float(np.mean(g)),
            "q90_gap": float(np.quantile(g, 0.9)),
            "count": len(g),
        }
        for k, g in sorted(by_k.items())
    }
