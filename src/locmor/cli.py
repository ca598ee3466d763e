"""Command line entry point.

    locmor list
    locmor defaults example1-fixed > cfg.json
    locmor run --config cfg.json [--seed N] [--runs N] [--out DIR]
"""

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy
import scipy.linalg  # loads scipy's OpenBLAS copy

from .experiments import (EXPERIMENT_IDS, ExperimentConfig, default_config,
                          run_experiment)
from .linalg import NearSingularError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="locmor",
        description="Randomized range approximation experiments for "
                    "localized model order reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True,
                     help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--runs", type=int, default=None,
                     help="override the number of Monte Carlo runs")
    run.add_argument("--out", default=None,
                     help="override the output directory")

    defaults = sub.add_parser(
        "defaults", help="print the default config for an experiment")
    defaults.add_argument("experiment", choices=EXPERIMENT_IDS)

    sub.add_parser("list", help="list available experiments")
    return parser


# numpy's and scipy's bundled OpenBLAS copies: (package, library
# directory beside it, file pattern, thread setter)
_OPENBLAS_COPIES = (
    (numpy, "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy.libs", "libscipy_openblas-*.so",
     "scipy_openblas_set_num_threads"),
)


def _pin_blas_threads():
    """Run both bundled OpenBLAS copies on one thread.

    numpy is loaded before any code here runs, so the thread variables
    come too late; the setters are called through ctypes instead.  Tiny
    dense calls dominate the experiments, and results then do not depend
    on the core count.  A numpy or scipy built against another BLAS is
    left alone.
    """
    for package, libdir, pattern, setter in _OPENBLAS_COPIES:
        site = Path(package.__file__).resolve().parent.parent / libdir
        for path in site.glob(pattern):
            # dlopen of a loaded library returns that same copy
            set_threads = getattr(ctypes.CDLL(str(path)), setter)
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _pin_blas_threads()

    if args.command == "list":
        for name in EXPERIMENT_IDS:
            print(name)
        return 0

    if args.command == "defaults":
        print(json.dumps(default_config(args.experiment), indent=2))
        return 0

    overrides = {key: getattr(args, key)
                 for key in ("seed", "runs", "out")
                 if getattr(args, key) is not None}
    try:
        cfg = ExperimentConfig.from_json(args.config, **overrides)
        # only after validation, so a rejected config leaves no directory
        out = Path(cfg.out)
        created = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        # a bad config or --out path is a usage error: exit 2, as argparse
        print(f"locmor: error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run_experiment(cfg)
    except (NearSingularError, ValueError) as exc:
        # e.g. a resonant kappa; outputs are written last, so the
        # directories made above are empty: deepest first
        for directory in created:
            directory.rmdir()
        print(f"locmor: error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
