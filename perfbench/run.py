"""causalpred benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ci_pc --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics (``ops_per_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a traced run, printed
as a table before it.  Every run checks the program's outputs against
independent computations (``checks.py``) and writes its result, with run
metadata, under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SETUP_PROBES = 3
WORKLOADS = ("ci_pc", "ci_oracle", "anm_polytree", "cli_session")


def load_workloads():
    """Import the package from the checkout's ``src/``, then the workloads."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def ready(args):
    """Everything before the first timed operation: imports, inputs, warm-up."""
    wl_mod = load_workloads()
    OUT.mkdir(exist_ok=True)
    wl = wl_mod.build(args.workload, args.seed, args.seconds, OUT)
    wl.warm()
    return wl_mod, wl


def probe_setup(args):
    """Seconds from starting a fresh interpreter until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_rounds(wl, rounds=None, seconds=None, tracer=None):
    """Whole rounds: a given number, or up to the round boundary nearest
    to ``seconds`` (the next round would end further past it than the
    last one ends short of it), so a 17 s round in an 18 s run runs once.

    Returns (outputs of the rounds that succeeded, wall seconds of each
    round, failed operations).
    """
    outputs, times, failed = [], [], 0
    while True:
        t0 = time.perf_counter()
        try:
            outputs.append(tracer.run("op", wl.round) if tracer else wl.round())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += wl.ops_per_round
        times.append(time.perf_counter() - t0)
        elapsed = sum(times)
        if rounds is not None:
            if len(times) >= rounds:
                return outputs, times, failed
        elif elapsed + elapsed / len(times) / 2.0 >= seconds:
            return outputs, times, failed


def blas_info():
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "cpu": cpu_model(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    _, wl = ready(args)
    try:
        outputs, times, failed = run_rounds(wl, seconds=args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = wl.check(outputs) if outputs else []
    finally:
        wl.close()
    attempted = len(times) * wl.ops_per_round
    metrics = {
        "ops_per_s": metric(attempted / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    extra = {"setup_probes_s": setups, "round_s": times, "ops_per_round": wl.ops_per_round}
    return problems, attempted, failed, metrics, extra


def traced(args):
    """Untraced rounds for half the run, then as many traced rounds."""
    wl_mod, wl = ready(args)
    import tracing

    tracer = tracing.Tracer()
    try:
        plain, plain_times, failed = run_rounds(wl, seconds=args.seconds / 2.0)
        tracer.install(wl_mod.MODULES)
        try:
            outputs, traced_times, failed_traced = run_rounds(wl, rounds=len(plain_times), tracer=tracer)
        finally:
            tracer.uninstall()
        problems = wl.check(plain + outputs) if plain + outputs else []
    finally:
        wl.close()
    ops = len(plain_times) * wl.ops_per_round
    plain_s, traced_s = sum(plain_times), sum(traced_times)
    calls, own = tracer.totals()
    metrics = {}
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = metric(calls[name] / ops, "count")
        metrics[f"{name}.ms"] = metric(own[name] * 1e3 / ops, "ms")
    for name in tracing.COUNTER_NAMES:
        metrics[name] = metric(tracer.counts[name] / ops, "count")
    metrics["trace.op_ms"] = metric(traced_s * 1e3 / ops, "ms")
    metrics["trace.unwrapped_ms"] = metric(own["op"] * 1e3 / ops, "ms")
    metrics["trace.overhead_s"] = metric((traced_s - plain_s) / ops, "s")

    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans)
    print_table(args.workload, metrics, ops)
    extra = {"spans_file": str(spans.relative_to(ROOT)), "untraced_s": plain_s, "traced_s": traced_s}
    return problems, 2 * ops, failed + failed_traced, metrics, extra


def print_table(workload, metrics, ops):
    op_ms = metrics["trace.op_ms"]["value"]
    rows = sorted(
        (m["value"], key[: -len(".ms")]) for key, m in metrics.items()
        if key.endswith(".ms") and not key.startswith("trace.")
    )
    print(f"# per-layer self time on {workload}, per operation ({ops} traced operations)")
    print(f"{'layer function':34} {'calls/op':>10} {'self ms/op':>11} {'share':>6}")
    for ms, name in reversed(rows):
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            print(f"{name:34} {calls:10.1f} {ms:11.2f} {ms / op_ms:6.1%}")
    unwrapped = metrics["trace.unwrapped_ms"]["value"]
    print(f"{'(unwrapped remainder)':34} {'':10} {unwrapped:11.2f} {unwrapped / op_ms:6.1%}")
    print(f"{'(traced operation)':34} {'':10} {op_ms:11.2f}")
    for name in ("learners.pc.tests", "harness.queries_scored"):
        print(f"{name:34} {metrics[name]['value']:10.1f}")
    print(f"trace overhead per operation: {metrics['trace.overhead_s']['value']:.4f} s")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "causalpred" / "__init__.py").is_file():
        sys.exit(f"perfbench: no causalpred package under {SRC}; run from a source checkout")

    if args.probe:
        _, wl = ready(args)
        print("ready", flush=True)
        wl.close()
        return 0

    problems, attempted, failed, metrics, extra = (traced if args.trace else end_to_end)(args)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, metadata=metadata(args), run=extra, check_failures=problems)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
