"""End-to-end simulation experiments with generalization-bound overlays.

Two studies: empirical vs. expected risk of a DAG fitted by PC as a
predictor of conditional-independence test outcomes, and of a polytree
fitted from bivariate additive-noise tests as a predictor of further
additive-noise tests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

# d_separated, empirical_error, fisher_z_from_corr and q_anm_polytree stay
# bound here for the benchmark's tracer
from .bounds import ModelClassId, gap_binary, vc_upper_bound
from .core import QueryKind, ci_query_array, empirical_error, enumerate_queries
from .errors import InvalidParams, InvalidSize, KTooLarge, LengthMismatch, ParseError, TagMismatch
from .learners import pc_fit, pc_oracle, polytree_from_anm
from .models import (
    anm_polytree_many,
    d_separated,
    d_separated_many,
    q_anm_polytree,
    random_dag_from_cpdag,
)
from .stattests import anm_test, correlation_matrix, fisher_z_from_corr, fisher_z_many
from .synthgen import _edge_probability, gen_gam_scm, gen_linear_scm, sample

# the most nodes a ci experiment takes: its order-0/1 universe holds
# n(n-1)/2 * (n-1) query rows, growing as n^3; one replicate at this many
# (l = 2000, max_cond 1) peaked at 0.81 GB resident on d-separation truth
# and 0.78 GB on Fisher-Z tests (0.86 GB at l = 50,000, the most samples
# MAX_SAMPLE_CELLS allows); 0.45 GB at n = 160 and 1.3 GB at n = 240
MAX_CI_NODES = 200


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
    datasets: int = 5  # anm experiment
    expected_degree: float = 1.5
    oracle: bool = False  # ci: replace tests by d-separation truth

    def __post_init__(self):
        refused = {"ci": ("k_values", "datasets"), "anm": ("max_cond", "oracle")}
        if self.experiment not in refused:
            raise InvalidParams(f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            if f.name in refused[self.experiment] and getattr(self, f.name) != f.default:
                raise InvalidParams(f"{f.name} is not read by {self.experiment} experiments")
        if self.repetitions < 1 or self.datasets < 1:
            raise InvalidParams("need at least one repetition and dataset")
        if self.seed < 0:
            raise InvalidParams(f"seed {self.seed} is negative")
        # the checks of the steps that would otherwise refuse these values
        # only after some work has run, such as building the universe: the
        # tests, gap_binary, PC, polytree_from_anm and the SCM generators
        for name, value in (("alpha", self.alpha), ("eta", self.eta)):
            if not 0.0 < value < 1.0:
                raise InvalidParams(f"{name} {value} outside (0, 1)")
        if self.max_cond < 0:
            raise InvalidSize("max_cond must be nonnegative")
        if self.experiment == "ci" and self.n > MAX_CI_NODES:
            raise InvalidSize(
                f"a ci experiment on {self.n} nodes; the limit is {MAX_CI_NODES} nodes"
            )
        if self.experiment == "anm":
            if not self.k_values:
                raise InvalidParams("anm experiment needs k_values")
            pairs = self.n * (self.n - 1)
            for k in self.k_values:
                if not 1 <= k <= pairs:
                    raise KTooLarge(f"cannot draw {k} from a universe of {pairs}")
        _edge_probability(self.n, self.expected_degree)  # gen's checks of n and the degree

    @staticmethod
    def from_json(obj):
        """Config from a parsed JSON object; a non-object, an unknown or
        missing key, or a value not of its field's type is a ParseError.
        An int is a float, a bool is no int, and ``k_values`` is a list of
        ints."""
        if not isinstance(obj, dict):
            raise ParseError("experiment config must be a JSON object")
        types = {f.name: f.type for f in fields(ExperimentConfig)}
        for key, value in obj.items():
            if key in types:
                name, ok = _JSON_TYPES[types[key]]
                if not ok(value):
                    raise ParseError(f"bad experiment config: {key} must be {name}, not {value!r}")
        try:
            if "k_values" in obj:
                obj = dict(obj, k_values=tuple(obj["k_values"]))
            return ExperimentConfig(**obj)
        except TypeError as exc:
            raise ParseError(f"bad experiment config: {exc}") from None


# the JSON value each field annotation takes; Python counts a bool as an
# int, so the checks compare exact types
_JSON_TYPES = {
    "str": ("a string", lambda v: type(v) is str),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "bool": ("a boolean", lambda v: type(v) is bool),
    "tuple": ("a list of integers", lambda v: type(v) is list and all(type(k) is int for k in v)),
}


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


def _disagreement(predictions, results) -> float:
    """Share of positions where two 0/1 arrays differ: for binary values
    the float ``empirical_error`` gives, without a PropertyValue each."""
    predictions, results = np.asarray(predictions), np.asarray(results)
    if predictions.shape != results.shape:
        raise LengthMismatch(f"{predictions.size} predictions vs {results.size} results")
    if not predictions.size:
        raise LengthMismatch("need at least one prediction")
    for a in (predictions, results):
        if np.count_nonzero((a != 0) & (a != 1)):
            raise TagMismatch("binary values must be 0 or 1")
    return int(np.count_nonzero(predictions != results)) / predictions.size


def expected_risk(predict, queries, tester) -> float:
    """Disagreement of a predictor against a tester on a query universe;
    ``predict`` and ``tester`` take the queries, a list or an array of
    rows, and return 0/1 arrays."""
    return _disagreement(predict(queries), tester(queries))


def _record(cfg, h, rep, seed, log, predict, universe, tester):
    """Score a fitted predictor: its risk on the k tests of the learner's
    TestLog, whose rows ``predict`` takes, against its risk on the
    universe, with the VC gap of a class of VC dimension h at k."""
    empirical = _disagreement(predict(log.rows), log.labels)
    expected = expected_risk(predict, universe, tester)
    k = len(log)
    bound = gap_binary(h, k, cfg.eta)
    return RiskRecord(
        cfg.experiment, cfg.n, cfg.l, cfg.alpha, k, rep, empirical, expected, bound, seed
    )


def run_ci_experiment(cfg: ExperimentConfig):
    """Per dataset: fit PC, extend to a DAG, compare the risk on the
    queries PC actually executed with the risk on the full universe of
    marginal and one-variable-conditioned queries."""
    if cfg.experiment != "ci":
        raise InvalidParams("config is not a ci experiment")
    records = []
    universe = ci_query_array(cfg.n, (0, 1))
    h = vc_upper_bound(ModelClassId.ALL_DAGS, cfg.n)
    for rep in range(cfg.repetitions):
        seed = cfg.seed + 1000 * rep
        scm = gen_linear_scm(cfg.n, cfg.expected_degree, seed)
        if cfg.oracle:
            truth = scm.dag()
            cpdag, log = pc_oracle(truth, cfg.max_cond)
            tester = partial(d_separated_many, truth)
        else:
            data = sample(scm, cfg.l, seed + 1).dataset
            corr = correlation_matrix(data)
            cpdag, log = pc_fit(data, cfg.alpha, cfg.max_cond, corr=corr)

            def tester(rows):
                return fisher_z_many(corr, cfg.l, rows, cfg.alpha)[0]

        g = random_dag_from_cpdag(cpdag, seed + 2)
        predict = partial(d_separated_many, g)
        records.append(_record(cfg, h, rep, seed, log, predict, universe, tester))
    return records


def run_anm_experiment(cfg: ExperimentConfig):
    """Per joint dataset: label every ordered pair once by the additive-noise
    test, then fit polytrees from k-subsets across repetitions and record
    empirical vs. expected risk, with the VC gap of the polytree class, the
    class of the model fitted."""
    if cfg.experiment != "anm":
        raise InvalidParams("config is not an anm experiment")
    h = vc_upper_bound(ModelClassId.POLYTREES, cfg.n)
    universe = enumerate_queries(cfg.n, QueryKind.ORDERED_PAIR)
    pairs = np.array([q.members for q in universe], dtype=np.intp)
    records = []
    for ds in range(cfg.datasets):
        seed = cfg.seed + 100_000 * ds
        scm = gen_gam_scm(cfg.n, cfg.expected_degree, seed)
        data = sample(scm, cfg.l, seed + 1).dataset
        # one scalar anm_test call per pair, which the benchmark taps
        labels, p = np.zeros((cfg.n, cfg.n), dtype=np.int64), np.zeros((cfg.n, cfg.n))
        for q in universe:
            out = anm_test(data, q, cfg.alpha)
            labels[q.members], p[q.members] = out.value.value, out.p_value

        def tester(rows):
            return labels[tuple(rows.T)]

        def outcomes(rows):
            return tester(rows), p[tuple(rows.T)]

        for k in cfg.k_values:
            for rep in range(cfg.repetitions):
                rep_seed = seed + 10 * rep + 2
                tree, log = polytree_from_anm(data, k, cfg.alpha, rep_seed, tester=outcomes)
                predict = partial(anm_polytree_many, tree)
                records.append(_record(cfg, h, rep, rep_seed, log, predict, pairs, tester))
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
