"""Closed-loop benchmark of locmor: one client in one process.

Run from the repository root:

    python3 bench/run.py --workload interface-matfree --seed 0 \
        --seconds 30 --trace 0

--workload all runs every workload in turn, each in a fresh process.

The run sets up the workload's problem several times, then issues one
operation at a time until --seconds have passed and at least the
workload's minimum number of operations is done.  Operation i draws
from random stream seed * 2**20 + i.  Each output is checked against its
contract; a violated contract or an exception counts as a failed
operation.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds per-layer self times and counts from a traced set-up
and from traced operations interleaved with untraced ones, whose median
difference is the tracing overhead.  Earlier stdout lines give the
environment and a readable summary; the full record, and in traced runs
every span, is written under .bench_results/.

BLAS is pinned to one thread before numpy loads: that is how locmor is
deployed, and the run refuses to report timings if either bundled
OpenBLAS reads back another thread count.
"""

import argparse
import ctypes
import gc
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import blas
import tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SEED_STRIDE = 1 << 20
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "evals_per_op": "count",
    "peak_rss_mb": "MB",
}

TRACE_GAUGES = {
    "gfem.reduced_dim": "count",
    "gfem.dropped_columns": "count",
    "gfem.error_to_tol_max": "ratio",
    "gfem.distinct_patch_share": "ratio",
    "trace.overhead_s": "s",
    "trace.traced_ops": "count",
}


def nearest_rank(ordered, p):
    """Nearest-rank p-th percentile of an ascending sample."""
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(n):
    """(p, samples beyond) for the highest whole percentile whose nearest
    rank leaves at least TAIL_SAMPLES samples above it, or None."""
    for p in range(99, 0, -1):
        beyond = n - max(1, -(-p * n // 100))
        if beyond >= TAIL_SAMPLES:
            return p, beyond
    return None


def op_seed(seed, i):
    """Random stream of operation i in a run with the given seed."""
    return seed * SEED_STRIDE + i


def release_freed_memory():
    """Collect garbage and hand freed heap pages back to the OS.

    glibc keeps a freed problem's pages mapped, so without this every
    repeated set-up would raise the peak memory and reuse warm pages a
    fresh process does not have.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def run_workload(workload, seed, seconds, trace):
    """Set up, then run operations closed-loop; returns the raw record."""
    recorder = tracer.SpanRecorder()
    wrappers = tracer.Tracer(recorder)

    setup_times = []
    problem = None
    for k in range(1 if trace else workload.setups):
        problem = None
        release_freed_memory()
        t0 = time.perf_counter()
        if trace:
            with wrappers, recorder.operation(f"setup-{k}", "bench.setup"):
                problem = workload.setup()
        else:
            problem = workload.setup()
        setup_times.append(time.perf_counter() - t0)

    durations, traced, evaluations, gauges = [], [], [], []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    try:
        while (i < workload.min_ops or time.perf_counter() < deadline
               or (trace and (all(traced) or not any(traced)))):
            is_traced = trace and (i // workload.period) % 2 == 1
            if is_traced and not wrappers.patched:
                wrappers.install()
            elif not is_traced and wrappers.patched:
                wrappers.remove()
            t0 = time.perf_counter()
            try:
                if is_traced:
                    with recorder.operation(f"op-{i}", "bench.op"):
                        outcome = workload.operation(problem, i,
                                                     op_seed(seed, i))
                else:
                    outcome = workload.operation(problem, i, op_seed(seed, i))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcome = None
            durations.append(time.perf_counter() - t0)
            traced.append(is_traced)
            if outcome is None or not outcome.ok:
                failed += 1
            evaluations.append(outcome.evaluations if outcome else 0)
            if outcome is not None:
                gauges.append(outcome.gauges)
            i += 1
    finally:
        wrappers.remove()
    elapsed = time.perf_counter() - start
    return {
        "setup_times": setup_times,
        "durations": durations,
        "traced": traced,
        "evaluations": evaluations,
        "gauges": gauges,
        "failed": failed,
        "elapsed": elapsed,
        "recorder": recorder,
        "problem": problem,
    }


def end_to_end_metrics(workload, raw):
    ordered = sorted(raw["durations"])
    p, beyond = tail_percentile(len(ordered))
    fixed = raw["evaluations"][: workload.min_ops]
    values = {
        "setup_s": statistics.median(raw["setup_times"]),
        "op_p50_s": nearest_rank(ordered, 50),
        "op_tail_s": nearest_rank(ordered, p),
        "ops_per_s": len(ordered) / raw["elapsed"],
        # mean over the first min_ops operations: exact at a fixed seed
        "evals_per_op": sum(fixed) / len(fixed),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_tail_percentile": p, "op_tail_beyond": beyond,
             "ops": len(ordered), "setups": len(raw["setup_times"])}
    return ({k: (v, END_TO_END[k]) for k, v in values.items()}, notes)


def per_layer_metrics(workload, raw):
    flags = raw["traced"]
    n_traced = sum(flags)
    metrics = tracer.layer_metrics(
        raw["recorder"].spans,
        {"setup": len(raw["setup_times"]), "op": n_traced})
    on = sorted(d for d, t in zip(raw["durations"], flags) if t)
    off = sorted(d for d, t in zip(raw["durations"], flags) if not t)
    gauges = raw["gauges"]

    def gauge(key, reduce):
        found = [g[key] for g in gauges if key in g]
        return float(reduce(found)) if found else 0.0

    share = getattr(workload, "distinct_patch_share", None)
    values = {
        "gfem.reduced_dim": gauge("reduced_dim", statistics.mean),
        "gfem.dropped_columns": gauge("dropped_columns", max),
        "gfem.error_to_tol_max": gauge("error_to_tol", max),
        "gfem.distinct_patch_share": share(raw["problem"]) if share else 0.0,
        "trace.overhead_s": nearest_rank(on, 50) - nearest_rank(off, 50),
        "trace.traced_ops": n_traced,
    }
    metrics.update({k: (v, TRACE_GAUGES[k]) for k, v in values.items()})
    return metrics, {"traced_ops": n_traced, "untraced_ops": len(off),
                     "spans": len(raw["recorder"].spans)}


def write_record(name, seed, trace, record, recorder):
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with gzip.open(f"{stem}-spans.tsv.gz", "wt", compresslevel=1,
                       encoding="utf-8") as fh:
            recorder.write(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced problem sizes, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args, names):
    """Every workload in turn, each in a fresh process of its own so that
    peak_rss_mb is that workload's alone; nonzero if any run failed."""
    worst = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *(["--tiny"] if args.tiny else [])]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        code = proc.returncode
        if code == 0 and json.loads(proc.stdout.splitlines()[-1])["failed"]:
            code = 1
        worst = max(worst, code)
    return worst


def main(argv=None):
    args = parse_args(argv)
    try:
        copies = blas.openblas_copies()
        blas.check_pinned(copies)
    except (blas.BlasPinError, OSError, AttributeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import locmor from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    source = Path(workloads.locmor.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"bench: locmor was imported from {source}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(cls.TINY if args.tiny else None)
    env = blas.environment(ROOT, copies)
    raw = run_workload(workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics, notes = per_layer_metrics(workload, raw)
    else:
        metrics, notes = end_to_end_metrics(workload, raw)
    attempted = len(raw["durations"])
    result = {
        "correct": raw["failed"] == 0,
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    write_record(args.workload, args.seed, args.trace, {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "params": workload.p, "environment": env, "notes": notes,
        "setup_times": raw["setup_times"], "durations": raw["durations"],
        "evaluations": raw["evaluations"], "result": result,
    }, raw["recorder"])

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {raw['failed']} of "
          f"{attempted} operations failed; " + ", ".join(
              f"{k} {v}" for k, v in notes.items()))
    if "op_tail_percentile" in notes:
        print(f"op_tail_s is the nearest-rank p{notes['op_tail_percentile']}"
              f" of {notes['ops']} operations, {notes['op_tail_beyond']} "
              "beyond it")
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    blas.pin_threads()  # must precede the first numpy import
    sys.exit(main())
