"""Spans around the package's public functions, kept in memory.

A wrapper is installed at every name a caller looks up: a ``from``-import
binds the function a second time in the importing module, so
``harness.fisher_z_from_corr`` and ``learners.fisher_z_from_corr`` are
wrapped apart from ``stattests.fisher_z_from_corr``.  Each call becomes a
span ``[id, parent id, name, start, end]``; a span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

MODULES = ("harness", "learners", "stattests", "models", "synthgen", "cli", "bounds")
COUNTER_NAMES = ("learners.pc.tests", "harness.queries_scored")


def _count_pc_tests(counts, args, result):
    counts["learners.pc.tests"] += len(result[1])


def _count_queries(counts, args, result):
    counts["harness.queries_scored"] += len(args[1])


def targets(cp):
    """(module, attribute, span name, counter) for every wrapped name.

    ``cp`` maps module short names to the imported ``causalpred`` modules.
    """
    h, lr, st, md, sg, cl, bd = (cp[k] for k in MODULES)
    return [
        (h, "fisher_z_from_corr", "stattests.fisher_z", None),
        (lr, "fisher_z_from_corr", "stattests.fisher_z", None),
        (st, "fisher_z_from_corr", "stattests.fisher_z", None),  # fisher_z_ci (cli test)
        (st, "hsic_statistic", "stattests.hsic_statistic", None),
        (st, "median_bandwidth", "stattests.median_bandwidth", None),
        (st, "kernel_regress", "stattests.kernel_regress", None),
        (h, "anm_test", "stattests.anm_test", None),
        (lr, "anm_test", "stattests.anm_test", None),
        (st, "anm_test", "stattests.anm_test", None),
        (h, "d_separated", "models.d_separated", None),
        (lr, "d_separated", "models.d_separated", None),
        (md, "d_separated", "models.d_separated", None),  # q_ci_dag (cli predict)
        (h, "random_dag_from_cpdag", "models.random_dag_from_cpdag", None),
        (h, "q_anm_polytree", "models.q_anm_polytree", None),
        (md, "save_model", "models.save_model", None),
        (md, "load_model", "models.load_model", None),
        (h, "pc_fit", "learners.pc", _count_pc_tests),
        (h, "pc_oracle", "learners.pc", _count_pc_tests),
        (lr, "pc_fit", "learners.pc", _count_pc_tests),
        (h, "polytree_from_anm", "learners.polytree_from_anm", None),
        (lr, "polytree_from_anm", "learners.polytree_from_anm", None),
        (lr, "fit_path_model", "learners.fit_path_model", None),
        (h, "expected_risk", "harness.expected_risk", _count_queries),
        (h, "empirical_error", "core.empirical_error", None),
        (h, "gen_linear_scm", "synthgen.gen_scm", None),
        (h, "gen_gam_scm", "synthgen.gen_scm", None),
        (sg, "gen_linear_scm", "synthgen.gen_scm", None),
        (sg, "gen_gam_scm", "synthgen.gen_scm", None),
        (h, "sample", "synthgen.sample", None),
        (sg, "sample", "synthgen.sample", None),
        (cl, "load_dataset", "core.load_dataset", None),
        (cl, "save_dataset", "core.save_dataset", None),
        (h, "gap_binary", "bounds", None),
        (h, "vc_upper_bound", "bounds", None),
        (bd, "gap_binary", "bounds", None),
        (bd, "vc_upper_bound", "bounds", None),
        (bd, "min_training_sets", "bounds", None),
        (bd, "count_queries", "bounds", None),
    ] + [
        (cl, f"cmd_{c}", f"cli.{c}", None)
        for c in ("gen", "test", "fit", "predict", "bound", "plan")
    ]


def span_names():
    """Every span name ``targets`` produces, in table order; needs no
    import of the package, since ``targets`` only reads its argument."""
    return list(dict.fromkeys(name for _, _, name, _ in targets(dict.fromkeys(MODULES))))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._installed = []

    def _enter(self, name):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _exit(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        rec = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(rec)

    def wrap(self, module, attr, name, counter=None):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self, cp):
        for module, attr, name, counter in targets(cp):
            self.wrap(module, attr, name, counter)

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def totals(self):
        """Per span name: (calls, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = defaultdict(int)
        own = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            own[name] += end - start - covered[sid]
        return calls, own

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
