"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one *round*
(a fixed list of operations) through the package's public entry points,
and checks the outputs of its rounds against ``checks``.  The program only
ever sees the generated inputs, never the benchmark seed itself.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import tempfile
from contextlib import contextmanager, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np

from causalpred import bounds, cli, harness, learners, models, stattests, synthgen
from causalpred.core import Query

import checks

MODULES = {
    "harness": harness,
    "learners": learners,
    "stattests": stattests,
    "models": models,
    "synthgen": synthgen,
    "cli": cli,
    "bounds": bounds,
}

ETA = 0.1  # ExperimentConfig's default confidence parameter


def _base(seed, stride):
    """Program-side seed for a benchmark seed; with ``stride`` above the
    harness's own per-replicate and per-dataset offsets, the seeds that
    two benchmark seeds hand to the program never coincide."""
    return (seed % 2**31) * stride


def _ci_universe(n):
    return [(a, b, ()) for a, b in combinations(range(n), 2)] + [
        (a, b, (c,)) for a, b in combinations(range(n), 2) for c in range(n) if c not in (a, b)
    ]


@contextmanager
def _tap(module, attr, sink):
    """Keep (args, result) of every call of ``module.attr``; used only in
    the check phase, to read outputs that a harness builds but does not
    return."""
    original = getattr(module, attr)

    def tap(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, attr, tap)
    try:
        yield sink
    finally:
        setattr(module, attr, original)


class Workload:
    """One round of operations plus the checks of its outputs."""

    ops_per_round = 1

    def warm(self):
        """Run the code paths once on tiny inputs, so lazy imports and
        first-call costs land in set-up rather than in the first round."""

    def round(self):
        raise NotImplementedError

    def check(self, outputs):
        """Failure messages for the outputs of the rounds run."""
        raise NotImplementedError

    def close(self):
        pass


def _same_rounds(outputs):
    if any(out != outputs[0] for out in outputs[1:]):
        return ["rounds of the same inputs gave different outputs"]
    return []


class CiExperiment(Workload):
    """Criterion 5 family: linear-Gaussian SCMs at n = 20, l = 10^4,
    alpha = 0.001, PC extended to a DAG and scored on the order-0 and
    order-1 CI universe.  One operation is one replicate.  With
    ``oracle`` PC and the scorer read d-separation on the true graph.

    The cost of a replicate depends on its random graph, so a round holds
    as many distinct replicates as fill ``seconds`` at the reference rate
    ``SECONDS_PER_OP`` rather than repeating a few: the run then averages
    over graphs instead of inheriting the cost of a handful."""

    N, L, ALPHA = 20, 10_000, 0.001
    SECONDS_PER_OP = {False: 0.68, True: 0.19}  # 2-vCPU Xeon VM, keyed by oracle
    CHECKED_REPS = 6  # replicates whose p-values and d-separations are recomputed

    def __init__(self, seed, oracle, seconds):
        reps = max(1, round(seconds / self.SECONDS_PER_OP[oracle]))
        self.oracle = oracle
        self.ops_per_round = reps
        self.cfg = harness.ExperimentConfig(
            "ci", n=self.N, l=self.L, alpha=self.ALPHA, repetitions=reps,
            seed=_base(seed, 100_000), oracle=oracle,
        )
        self.rng = random.Random(seed)

    def warm(self):
        harness.run_ci_experiment(
            harness.ExperimentConfig("ci", n=6, l=500, repetitions=1, oracle=self.oracle)
        )

    def round(self):
        return harness.run_ci_experiment(self.cfg)

    def check(self, outputs):
        cfg, n = self.cfg, self.N
        records = outputs[0]
        out = _same_rounds(outputs)
        out += checks.check_gaps([(r.k, r.gap, r.bound_unscaled) for r in records], checks.vc_all_dags(n), cfg.eta)
        universe = _ci_universe(n)
        for r in [records[0]] + self.rng.sample(records[1:], min(self.CHECKED_REPS, len(records) - 1)):
            scm = synthgen.gen_linear_scm(n, cfg.expected_degree, r.seed)
            truth = scm.dag()
            true_edges = [(j, i) for i in range(n) for j in range(n) if scm.coeffs[i, j] != 0]
            if self.oracle:
                cpdag, labels = learners.pc_oracle(truth, cfg.max_cond)
                out += checks.check_d_separation(
                    n, true_edges,
                    [(*lq.query.members, lq.query.cond, lq.outcome.value.value) for lq in labels],
                )
            else:
                data = synthgen.sample(scm, cfg.l, r.seed + 1).dataset
                cpdag, labels = learners.pc_fit(data, cfg.alpha, cfg.max_cond)
                corr = np.corrcoef(data.samples, rowvar=False)
                picked = self.rng.sample(universe, 12)
                answers = [
                    (a, b, c, stattests.fisher_z_from_corr(corr, cfg.l, (a, b), c, cfg.alpha).p_value)
                    for a, b, c in picked
                ]
                answers += [
                    (*lq.query.members, lq.query.cond, lq.outcome.p_value)
                    for lq in self.rng.sample(labels, 4)
                ]
                out += checks.check_fisher_z(data.samples, answers)
            if r.k != len(labels):
                out.append(f"rep {r.rep}: record k = {r.k}, PC ran {len(labels)} tests")
            g = models.random_dag_from_cpdag(cpdag, r.seed + 2)
            for dag, edges in ((truth, true_edges), (g, sorted(g.edges))):
                picked = self.rng.sample(universe, 60)
                out += checks.check_d_separation(
                    n, edges,
                    [(a, b, c, models.d_separated(dag, Query.ci(a, b, c))) for a, b, c in picked],
                )
            if self.oracle and r.rep == 0:
                # both risks, recomputed on moral graphs alone
                g_edges = sorted(g.edges)

                def disagree(a, b, c):
                    return checks.moral_d_separated(n, g_edges, a, b, c) != checks.moral_d_separated(
                        n, true_edges, a, b, c
                    )

                emp = sum(disagree(*lq.query.members, lq.query.cond) for lq in labels) / len(labels)
                exp = sum(disagree(*q) for q in universe) / len(universe)
                if (r.empirical, r.expected) != (emp, exp):
                    out.append(
                        f"rep 0 risks ({r.empirical}, {r.expected}), moral graphs give ({emp}, {exp})"
                    )
        return out


class AnmExperiment(Workload):
    """Criterion 6 family: a GAM SCM at n = 10, m = 600, the ANM test on
    all 90 ordered pairs, then 20 polytree fits at each k in the grid.
    One operation is one dataset."""

    N, M, ALPHA, K_VALUES, REPS = 10, 600, 0.05, (10, 30, 60, 90), 20

    def __init__(self, seed):
        self.cfg = harness.ExperimentConfig(
            "anm", n=self.N, l=self.M, alpha=self.ALPHA, repetitions=self.REPS,
            seed=_base(seed, 1_000_000), k_values=self.K_VALUES, datasets=1,
        )
        self.rng = random.Random(seed)

    def warm(self):
        harness.run_anm_experiment(
            harness.ExperimentConfig("anm", n=3, l=60, repetitions=1, k_values=(6,), datasets=1)
        )

    def round(self):
        return harness.run_anm_experiment(self.cfg)

    def check(self, outputs):
        n = self.N
        records = outputs[0]
        out = _same_rounds(outputs)
        out += checks.check_gaps([(r.k, r.gap, r.bound_unscaled) for r in records], checks.vc_polytrees(n), self.cfg.eta)
        out += checks.check_full_universe_risk(
            [(r.k, r.empirical, r.expected) for r in records], n * (n - 1)
        )
        # run_anm_experiment keeps its test outcomes and polytrees to itself:
        # compute the round again with taps on the two harness names
        with _tap(harness, "anm_test", []) as tests, _tap(harness, "polytree_from_anm", []) as fits:
            again = harness.run_anm_experiment(self.cfg)
        if again != records:
            out.append("the tapped rerun gave other records than the timed round")
        out += checks.check_polytrees(
            n,
            [
                (
                    sorted(tree.edges),
                    [(*lq.query.members, lq.outcome.value.value == 1) for lq in labels],
                )
                for _, (tree, labels) in fits
            ],
        )
        data = tests[0][0][0]
        pairs = self.rng.sample([q.members for (_, q, _), _ in tests], 3)
        answers = []
        for s, t in pairs:
            x, y = data.column(s), data.column(t)
            answers.append((x, y, stattests.hsic_statistic(x, y)[0]))
        out += checks.check_hsic(answers)
        return out


class CliSession(Workload):
    """A seeded command sequence through ``cli.main`` in-process, on files
    in a temporary directory: gen linear -> test ci -> fit pc --labels ->
    fit path -> predict corr -> bound -> plan.  One operation is one
    session; the only workload that writes and reads CSV and JSON."""

    N, SAMPLES, ALPHA = 20, 10_000, 0.01

    def __init__(self, seed, workdir):
        self.dir = Path(tempfile.mkdtemp(prefix="cli_session-", dir=workdir))
        rng = random.Random(seed)
        self.gen_seed = rng.randrange(2**31)
        self.test_query = rng.sample(range(self.N), 3)
        self.corr_pair = rng.sample(range(self.N), 2)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _session(self, n, samples, gen_seed, test_query, corr_pair):
        f = {k: str(self.dir / k) for k in ("d.csv", "truth.json", "model.json", "labels.csv", "path.json")}
        a, b, c = test_query
        outputs = []

        def call(*argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main([str(v) for v in argv])
            if code != 0:
                raise RuntimeError(f"causalpred {' '.join(map(str, argv))} exited {code}")
            outputs.append(json.loads(buf.getvalue()))
            return outputs[-1]

        call("gen", "linear", "--n", n, "--samples", samples, "--seed", gen_seed,
             "--out", f["d.csv"], "--truth", f["truth.json"])
        call("test", "--data", f["d.csv"], "--query", f"ci:{a},{b}|{c}", "--alpha", self.ALPHA)
        fit = call("fit", "pc", "--data", f["d.csv"], "--alpha", self.ALPHA,
                   "--out", f["model.json"], "--labels", f["labels.csv"])
        call("fit", "path", "--data", f["d.csv"], "--out", f["path.json"])
        call("predict", "--model", f["path.json"], "--query", "corr:{},{}".format(*corr_pair))
        call("bound", "--class", "alldags", "--n", n, "--k", fit["labels"], "--eta", ETA,
             "--empirical", 0.05)
        call("plan", "--class", "polytrees", "--n", n, "--eps", 0.1, "--eta", ETA)
        return outputs

    def warm(self):
        self._session(4, 200, 0, (0, 1, 2), (0, 3))

    def round(self):
        return self._session(self.N, self.SAMPLES, self.gen_seed, self.test_query, self.corr_pair)

    def check(self, outputs):
        gen, test, fit, _, predict, bound, plan = outputs[0]
        out = _same_rounds(outputs)
        scm = synthgen.gen_linear_scm(self.N, 1.5, self.gen_seed)
        expected = synthgen.sample(scm, self.SAMPLES, self.gen_seed + 1).dataset.samples
        out += checks.check_csv_equals(self.dir / "d.csv", expected, range(self.N))
        _, data = checks.read_csv_matrix(self.dir / "d.csv")
        a, b, c = self.test_query
        out += checks.check_fisher_z(data, [(a, b, (c,), test["p_value"])])
        out += checks.check_label_count(self.dir / "labels.csv", fit["labels"])
        order = json.loads((self.dir / "path.json").read_text(encoding="utf-8"))["order"]
        out += checks.check_path_corr(data, order, *self.corr_pair, predict["value"])
        out += checks.check_bound_report(bound, self.N, fit["labels"], ETA, 0.05)
        out += checks.check_plan_report(plan, self.N, 0.1, ETA)
        return out


def build(name, seed, seconds, workdir):
    if name == "ci_pc":
        return CiExperiment(seed, oracle=False, seconds=seconds)
    if name == "ci_oracle":
        return CiExperiment(seed, oracle=True, seconds=seconds)
    if name == "anm_polytree":
        return AnmExperiment(seed)
    if name == "cli_session":
        return CliSession(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
