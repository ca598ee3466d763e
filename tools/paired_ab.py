"""Paired A/B timing of one benchmark workload on two checkouts.

Loads `src/locmor` of checkout A as the package `locmor_a` and of
checkout B as `locmor_b`, side by side in one process, and gives each
its own copy of `bench/workloads.py` (read from this checkout, not
edited) bound to it.  After one set-up per side, every repetition runs
operations 0, 1, ... of the workload on both sides, alternating which
side goes first, with the same operation index and stream seed on both.
Each operation's time on B over its time on A is one paired ratio.

Prints the per-repetition medians of both sides, the median paired
ratio and a bootstrap 95% confidence interval of that median, and
checks that both sides report the same evaluations and contract
outcomes.  Exits 1 if they do not.

    python tools/paired_ab.py PARENT_CHECKOUT . \\
        --workload interface-montecarlo --reps 5 --ops 780

Set OPENBLAS_NUM_THREADS before starting it: the count is read when
numpy is first imported.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / \
    "workloads.py"


def load_package(name, checkout):
    """Import checkout/src/locmor under the package name `name`."""
    root = Path(checkout).resolve() / "src" / "locmor"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads(name, package):
    """A private copy of bench/workloads.py whose `import locmor` binds
    package."""
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("locmor")
    sys.modules["locmor"] = package
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["locmor"]
        else:
            sys.modules["locmor"] = saved
    return module


def bootstrap_median_ci(values, resamples, seed):
    """Percentile bootstrap 95% interval of the median of values."""
    rng = np.random.default_rng(seed)
    medians = np.empty(resamples)
    for k in range(resamples):
        medians[k] = np.median(rng.choice(values, values.size))
    return np.percentile(medians, [2.5, 97.5])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B, the change")
    parser.add_argument("--workload", default="interface-montecarlo")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per repetition (default: the "
                             "workload's min_ops)")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed of operation 0")
    parser.add_argument("--resamples", type=int, default=2000)
    args = parser.parse_args(argv)

    sides = {}
    for label, checkout in (("a", args.a), ("b", args.b)):
        package = load_package(f"locmor_{label}", checkout)
        workloads = load_workloads(f"workloads_{label}", package)
        workload = workloads.WORKLOADS[args.workload]()
        sides[label] = (workload, workload.setup())
    ops = args.ops or sides["a"][0].min_ops

    times = {"a": np.empty((args.reps, ops)), "b": np.empty((args.reps, ops))}
    mismatches = 0
    for rep in range(args.reps):
        for i in range(ops):
            order = ("a", "b") if (rep * ops + i) % 2 == 0 else ("b", "a")
            outcomes = {}
            for label in order:
                workload, problem = sides[label]
                start = time.perf_counter()
                outcome = workload.operation(problem, i, args.seed + i)
                times[label][rep, i] = time.perf_counter() - start
                outcomes[label] = (outcome.evaluations, outcome.ok)
            mismatches += outcomes["a"] != outcomes["b"]

    print(f"workload {args.workload}: {args.reps} x {ops} paired operations, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    print("rep  median_a_ms  median_b_ms  ratio")
    for rep in range(args.reps):
        med_a = statistics.median(times["a"][rep]) * 1e3
        med_b = statistics.median(times["b"][rep]) * 1e3
        print(f"{rep:3d}  {med_a:11.4f}  {med_b:11.4f}  {med_b / med_a:.3f}")
    ratios = (times["b"] / times["a"]).ravel()
    lo, hi = bootstrap_median_ci(ratios, args.resamples, args.seed)
    print(f"median paired ratio b/a {np.median(ratios):.3f} "
          f"(bootstrap 95% CI {lo:.3f} to {hi:.3f}, "
          f"{ratios.size} pairs)")
    print(f"operations whose evaluations or contract outcome differ: "
          f"{mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
