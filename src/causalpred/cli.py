"""Command-line entry point: gen / test / fit / predict / bound / plan /
experiment / merge, with JSON output and global seeding.

Query grammar: ``ci:a,b|c1,c2`` (empty conditioning allowed),
``anm:i->j``, ``dir:i->j``, ``corr:a,b``, ``sign:a,b``,
``lingam:t1,t2,...``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import bounds, harness, learners, models, stattests, synthgen
from .core import Query, QueryKind, load_dataset, load_json, save_dataset
from .errors import CausalPredError, InvalidSize, ParseError, UnsupportedQueryForModel

DEFAULT_SEED_ENV = "CAUSALPRED_SEED"


def parse_query(text):
    """Parse the CLI query grammar into a (kind, Query) pair."""
    try:
        prefix, body = text.split(":", 1)
    except ValueError:
        raise ParseError(f"query {text!r} has no kind prefix") from None
    try:
        if prefix == "ci":
            if "|" in body:
                pair, cond = body.split("|", 1)
            else:
                pair, cond = body, ""
            a, b = (int(v) for v in pair.split(","))
            cs = tuple(int(v) for v in cond.split(",")) if cond.strip() else ()
            return prefix, Query.ci(a, b, cs)
        if prefix in ("anm", "dir"):
            src, dst = (int(v) for v in body.split("->"))
            return prefix, Query.ordered_pair(src, dst)
        if prefix in ("corr", "sign"):
            a, b = (int(v) for v in body.split(","))
            return prefix, Query.unordered_pair(a, b)
        if prefix == "lingam":
            return prefix, Query.ordered_tuple(*(int(v) for v in body.split(",")))
    except (ValueError, TypeError):
        raise ParseError(f"malformed query {text!r}") from None
    raise ParseError(f"unknown query kind {prefix!r}")


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")


def _report(error, message):
    """An error as one JSON object on stderr."""
    json.dump({"error": error, "message": message}, sys.stderr)
    sys.stderr.write("\n")


def _outcome_json(out):
    return {
        "value": out.value.value,
        "tag": out.value.tag,
        "p_value": out.p_value,
        "alpha": out.alpha,
    }


# --- subcommands --------------------------------------------------------------


def cmd_gen(args):
    synthgen.check_sample_size(args.n, args.samples)
    if args.kind == "linear":
        scm = synthgen.gen_linear_scm(args.n, args.degree, args.seed)
    else:
        scm = synthgen.gen_gam_scm(args.n, args.degree, args.seed)
    save_dataset(synthgen.sample(scm, args.samples, args.seed + 1).dataset, args.out)
    if args.truth:
        synthgen.save_truth(scm, args.truth)
    _emit({"written": args.out, "n": scm.n, "l": args.samples})
    return 0


def cmd_test(args):
    prefix, q = parse_query(args.query)
    tests = {
        "ci": lambda d: stattests.fisher_z_ci(d, q, args.alpha),
        "anm": lambda d: stattests.anm_test(d, q, args.alpha),
        "corr": lambda d: stattests.corr_estimate(d, q),
        "sign": lambda d: stattests.sign_estimate(d, q),
    }
    if prefix not in tests:
        raise ParseError(f"no statistical test for query kind {prefix!r}")
    d = load_dataset(args.data, args.names)
    _emit(_outcome_json(tests[prefix](d)))
    return 0


def _label_rows(log):
    """The CSV rows (query, outcome, p-value) of a learner's TestLog;
    tolist() gives the Python ints and floats the writer formats."""
    rows = zip(log.rows.tolist(), log.labels.tolist(), log.p_values.tolist())
    if log.kind == QueryKind.ORDERED_PAIR:
        return [(f"anm:{s}->{t}", value, p) for (s, t), value, p in rows]
    return [
        (f"ci:{a},{b}|{','.join(str(c) for c in cond if c != -1)}", value, p)
        for (a, b, *cond), value, p in rows
    ]


def cmd_fit(args):
    if args.model == "polytree" and args.k is None:
        raise ParseError("polytree fitting needs --k")
    d = load_dataset(args.data, args.names)
    if args.model == "pc":
        model, log = learners.pc_fit(d, args.alpha, args.max_cond)
    elif args.model == "polytree":
        model, log = learners.polytree_from_anm(d, args.k, args.alpha, args.seed)
    else:
        model, log = learners.fit_path_model(d), None
    rows = [] if log is None else _label_rows(log)
    models.save_model(model, args.out)
    if args.labels:
        with open(args.labels, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("query", "outcome", "p_value"))
            w.writerows(rows)
    _emit({"written": args.out, "model": args.model, "labels": len(rows)})
    return 0


def cmd_predict(args):
    prefix, q = parse_query(args.query)
    model = models.load_model(args.model)
    if isinstance(model, models.PathModel):
        if prefix == "corr":
            _emit({"value": models.path_corr(model, q), "tag": "real"})
            return 0
        if prefix == "sign":
            _emit({"value": models.path_sign(model, q), "tag": "sign"})
            return 0
        if prefix == "ci":
            # the chain implied by the path model answers CI queries
            chain = models.Dag(
                model.n,
                [(model.order[i], model.order[i + 1]) for i in range(model.n - 1)],
            )
            _emit({"value": models.d_separated(chain, q), "tag": "binary"})
            return 0
        raise UnsupportedQueryForModel(f"path model cannot answer {prefix!r}")
    if isinstance(model, models.Cpdag):
        raise UnsupportedQueryForModel(
            "a CPDAG (fit pc) answers no query; predict with a model from fit path or fit polytree"
        )
    if prefix == "ci":
        _emit({"value": models.d_separated(model, q), "tag": "binary"})
    elif prefix == "dir":
        _emit({"value": models.q_dirpath(model, q), "tag": "binary"})
    elif prefix == "anm":
        if not isinstance(model, models.Polytree):
            raise UnsupportedQueryForModel("additive-noise queries need a polytree model")
        _emit({"value": models.q_anm_polytree(model, q), "tag": "binary"})
    elif prefix == "lingam":
        _emit({"value": models.q_lingam_admissible(model, q), "tag": "binary"})
    else:
        raise UnsupportedQueryForModel(f"DAG model cannot answer {prefix!r}")
    return 0


def cmd_bound(args):
    class_id = bounds.ModelClassId(args.model_class)
    h = bounds.vc_upper_bound(class_id, args.n)
    gap = bounds.class_gap(class_id, h, args.k, args.eta)
    out = {
        "class": class_id.value,
        "h": h,
        "k": args.k,
        "eta": args.eta,
        "empirical_risk": args.empirical,
        "gap": gap,
        "bound": args.empirical + gap,
    }
    if class_id == bounds.ModelClassId.PATH_CORR:
        out["note"] = (
            "h uses the fixed linear constant bounds.PATH_CORR_CONSTANT; valid up to that constant"
        )
    _emit(out)
    return 0


# the queries each class's predictor answers; the graph classes are planned
# on conditional-independence queries of order --cond-size
PLAN_QUERY_KIND = {
    bounds.ModelClassId.DIRECTIONALITY: QueryKind.ORDERED_PAIR,
    bounds.ModelClassId.PATH_SIGN: QueryKind.UNORDERED_PAIR,
    bounds.ModelClassId.PATH_CORR: QueryKind.UNORDERED_PAIR,
}


def cmd_plan(args):
    # pair classes ignore --cond-size, but no class takes a negative one
    if args.cond_size < 0:
        raise InvalidSize(f"conditioning size {args.cond_size} is negative")
    class_id = bounds.ModelClassId(args.model_class)
    min_k = bounds.min_training_sets(class_id, args.n, args.eps, args.eta)
    kind = PLAN_QUERY_KIND.get(class_id, QueryKind.COND_INDEP)
    cond_size = args.cond_size if kind == QueryKind.COND_INDEP else 0
    possible = bounds.count_queries(args.n, kind, cond_size)
    _emit(
        {
            "class": class_id.value,
            "n": args.n,
            "eps": args.eps,
            "eta": args.eta,
            "min_k": min_k,
            "possible_tests": possible,
            "fraction": min_k / possible,
        }
    )
    return 0


def cmd_experiment(args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = harness.ExperimentConfig.from_json(load_json(fh))
    records = harness.run_experiment(cfg)
    harness.write_records(records, args.out)
    _emit({"written": args.out, "records": len(records), "summary": harness.summarize(records)})
    return 0


def _load_matrix(path):
    """A JSON file holding a list of equally long lists of finite numbers,
    as a float matrix; any other JSON value is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        obj = load_json(fh)
    numbers = isinstance(obj, list) and all(
        isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in obj
    )
    try:  # a ragged list, or an integer past the float range, fails here
        m = np.array(obj, dtype=float) if numbers else None
    except (ValueError, OverflowError):
        m = None
    if m is None or m.ndim != 2 or not np.isfinite(m).all():
        raise ParseError(f"{path} holds no matrix of finite numbers")
    return m


def cmd_merge(args):
    glued = models.glue_gaussian_chain(_load_matrix(args.cov_xy), _load_matrix(args.cov_yz))
    _emit({"covariance": glued.tolist()})
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, such as an unknown --class, like every other
    error: one JSON object on stderr; the exit code stays argparse's 2."""

    def error(self, message):
        _report("UsageError", f"{self.prog}: {message}")
        self.exit(2)


MODEL_CLASSES = [c.value for c in bounds.ModelClassId]


def _seed(text):
    """A --seed value; argparse also runs this on the string default taken
    from the environment, so a bad value there is a usage error too."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed {text!r} (from --seed or {DEFAULT_SEED_ENV}) is not a nonnegative integer"
    )


def _risk(text):
    """An --empirical value, a risk: a number in [0, 1]."""
    try:
        if 0.0 <= float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"empirical risk {text!r} is not a number in [0, 1]")


def build_parser():
    p = _Parser(
        prog="causalpred",
        description="Causal models as predictors of statistical-test outcomes",
    )
    default_seed = os.environ.get(DEFAULT_SEED_ENV, "0")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("kind", choices=("linear", "gam"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--degree", type=float, default=1.5)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--seed", type=_seed, default=default_seed)
    g.add_argument("--out", required=True)
    g.add_argument("--truth")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("test", help="run a statistical test on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--names")
    t.add_argument("--query", required=True)
    t.add_argument("--alpha", type=float, default=0.05)
    t.set_defaults(func=cmd_test)

    f = sub.add_parser("fit", help="fit a causal model")
    f.add_argument("model", choices=("pc", "polytree", "path"))
    f.add_argument("--data", required=True)
    f.add_argument("--names")
    f.add_argument("--alpha", type=float, default=0.05)
    f.add_argument("--max-cond", type=int, default=1)
    f.add_argument("--k", type=int)
    f.add_argument("--seed", type=_seed, default=default_seed)
    f.add_argument("--out", required=True)
    f.add_argument("--labels")
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="evaluate a model on a query")
    pr.add_argument("--model", required=True)
    pr.add_argument("--query", required=True)
    pr.set_defaults(func=cmd_predict)

    b = sub.add_parser("bound", help="generalization-bound report")
    b.add_argument("--class", dest="model_class", required=True, choices=MODEL_CLASSES)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--eta", type=float, default=0.1)
    b.add_argument("--empirical", type=_risk, default=0.0)
    b.set_defaults(func=cmd_bound)

    pl = sub.add_parser("plan", help="training-set budget vs possible tests")
    pl.add_argument("--class", dest="model_class", required=True, choices=MODEL_CLASSES)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--eps", type=float, default=0.1)
    pl.add_argument("--eta", type=float, default=0.1)
    pl.add_argument("--cond-size", type=int, default=1)
    pl.set_defaults(func=cmd_plan)

    e = sub.add_parser("experiment", help="run a simulation study")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_experiment)

    m = sub.add_parser("merge", help="glue two Gaussian pair covariances")
    m.add_argument("cov_xy")
    m.add_argument("cov_yz")
    m.set_defaults(func=cmd_merge)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnsupportedQueryForModel) as exc:
        _report(type(exc).__name__, str(exc))
        return 1
    except (CausalPredError, OSError) as exc:
        _report(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
