"""Seeded, deterministic experiment harness behind the CLI.

Every experiment writes CSV (and, for the adaptive study, JSONL
diagnostics) into the output directory.  Identical configs produce byte
identical files: runs are ordered by index, run i draws from stream seed
s0 + i, and floats are formatted through one canonical function.
"""

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gfem import build_gfem_problem, gfem_run
from .oracle import weighted_svd
from .problems import build_gfem_mesh, build_interface_transfer, gfem_field
from .rangefinder import (RngStream, a_priori_bound, adaptive_randomized_range,
                          c_eff, fixed_rank_range, norm_estimate,
                          projection_error, test_vector_norms)
from .transfer import ResidualOperator

SCHEMA_VERSION = 1

EXPERIMENT_DEFAULTS = {
    "example1-fixed": {
        "h_inv": 40, "length": 1.0, "width": 1.0,
        "n_values": list(range(0, 13)), "runs": 100,
    },
    "example1-adaptive": {
        "h_inv": 40, "length": 1.0, "width": 1.0,
        "tols": [1e-2, 1e-4, 1e-6, 1e-8], "n_t": 10,
        "eps_algofail": 1e-15, "runs": 100,
    },
    "example1-hdep": {
        "h_invs": [20, 40, 80], "length": 0.5, "width": 2.0,
        "n_values": [2, 4, 6, 8], "n_t": 10, "runs": 200,
    },
    "example1-effectivity": {
        "h_inv": 40, "length": 1.0, "width": 1.0, "n": 4,
        "n_t_values": [5, 10, 20, 40, 80], "eps_testfail": 1e-10,
        "runs": 1000,
    },
    "example1-cputable": {
        "h_inv": 50, "length": 1.0, "width": 8.0,
        "tol": 1e-4, "n_t": 20, "eps_algofail": 1e-15,
    },
    "example2-helmholtz": {
        "h_inv": 80, "length": 1.0, "width": 1.0,
        "kappas": [0.0, 10.0, 20.0, 30.0, 40.0], "sigma_count": 30,
    },
    "example4-gfem": {
        "n_cells": 100, "fields": ["uniform", "channels"],
        "tols": [1e-2, 1e-4], "n_t": 20, "eps_algofail": 1e-15,
        "runs": 50,
    },
}

EXPERIMENT_IDS = sorted(EXPERIMENT_DEFAULTS)

# integer parameters (lists: each entry) and their minimum
INTEGER_PARAMS = {"runs": 1, "n_t": 1, "h_inv": 1, "n_cells": 1, "n": 1,
                  "sigma_count": 1, "h_invs": 1, "n_t_values": 1,
                  "n_values": 0}
# real parameters (lists: each entry) and the open interval they lie in
REAL_PARAMS = {"tol": (0.0, math.inf), "tols": (0.0, math.inf),
               "kappas": (-math.inf, math.inf), "eps_algofail": (0.0, 1.0),
               "eps_testfail": (0.0, 1.0), "length": (0.0, math.inf),
               "width": (0.0, math.inf)}
# name parameters (lists: each entry) and the names they may take
CHOICE_PARAMS = {"fields": ("uniform", "channels")}


def _check_integer(name, value, minimum):
    """Return int(value); raise ValueError unless value is an integer
    >= minimum.

    Integral floats such as 5.0 pass, since JSON writers may emit them;
    bools, strings and non-integral numbers do not.
    """
    integral = (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    if not integral or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_real(name, value, lo, hi):
    """Raise ValueError unless value is a finite number in (lo, hi)."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and lo < value < hi):
        raise ValueError(
            f"{name} must be a finite number in ({lo}, {hi}), got {value!r}")
    return value


def _check_choice(name, value, choices):
    """Raise ValueError unless value is one of choices."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(
            f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _check_on_grid(merged):
    """Raise ValueError unless length and width are integer multiples of
    every mesh spacing 1 / h_inv, so the far edges and the mid line
    x = 0 of the channel are mesh lines."""
    if "length" not in merged:
        return
    h_invs = merged["h_invs"] if "h_invs" in merged else [merged["h_inv"]]
    for key in ("length", "width"):
        for h_inv in h_invs:
            cells = merged[key] * h_inv
            if abs(cells - round(cells)) > 1e-6:
                raise ValueError(
                    f"params {key} must be an integer multiple of "
                    f"h = 1/{h_inv}, got {merged[key]!r}")


def _check_param(key, value, default, check, *bounds):
    """check(name, value, *bounds) on a parameter, or on each entry of a
    list parameter (one whose default is a list)."""
    if not isinstance(default, list):
        return check(f"params {key}", value, *bounds)
    if not isinstance(value, list):
        raise ValueError(f"params {key} must be a list, got {value!r}")
    return [check(f"params {key}[{i}]", v, *bounds)
            for i, v in enumerate(value)]


def _run_seed_count(params):
    """Upper bound on the run seeds seed, seed + 1, ... an experiment
    draws: `runs` draws for each combination of its list parameters."""
    count = params.get("runs", 1)
    for value in params.values():
        if isinstance(value, list):
            count *= len(value)
    return count


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    runs: int = None
    out: str = "results"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.experiment, str)
                and self.experiment in EXPERIMENT_DEFAULTS):
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {', '.join(EXPERIMENT_IDS)}")
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object, got {self.params!r}")
        defaults = EXPERIMENT_DEFAULTS[self.experiment]
        if self.runs is not None:
            if "runs" not in defaults:
                raise ValueError(f"{self.experiment} takes no runs")
            self.runs = _check_integer("runs", self.runs, 1)
        # the seed is written to the outputs, so an integral float stays
        # as given
        _check_integer("seed", self.seed, 0)
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.experiment}: "
                f"{', '.join(sorted(unknown))}")
        merged = dict(defaults)
        merged.update(self.params)
        if self.runs is not None:
            merged["runs"] = self.runs
        for key, value in merged.items():
            if key in INTEGER_PARAMS:
                merged[key] = _check_param(key, value, defaults[key],
                                           _check_integer, INTEGER_PARAMS[key])
            elif key in REAL_PARAMS:
                merged[key] = _check_param(key, value, defaults[key],
                                           _check_real, *REAL_PARAMS[key])
            elif key in CHOICE_PARAMS:
                merged[key] = _check_param(key, value, defaults[key],
                                           _check_choice, CHOICE_PARAMS[key])
        _check_on_grid(merged)
        self.params = merged
        # RngStream keys must lie below 2**128 (Philox).  Run i draws from
        # key seed + i, except in example4-gfem: gfem_run keys its patch
        # streams by ((seed + i) << 32) + patch id, leaving 96 bits.
        bits = 96 if self.experiment == "example4-gfem" else 128
        count = _run_seed_count(merged)
        if not 0 <= self.seed <= 2 ** bits - count:
            raise ValueError(
                f"seed must lie in [0, 2**{bits} - {count}] for "
                f"{self.experiment}, got {self.seed}")

    @classmethod
    def from_dict(cls, cfg):
        cfg = dict(cfg)
        version = cfg.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version must be {SCHEMA_VERSION}, "
                f"got {version!r}")
        known = {"experiment", "seed", "runs", "out", "params"}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "experiment" not in cfg:
            raise ValueError("config has no experiment key")
        return cls(**cfg)

    @classmethod
    def from_json(cls, path, **overrides):
        """Load a JSON config; `overrides` replace its top-level keys
        before validation."""
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        cfg.update(overrides)
        return cls.from_dict(cfg)


def default_config(experiment):
    """A complete config dict for an experiment, ready to serialize."""
    if experiment not in EXPERIMENT_DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": 0,
        "out": "results",
        "params": dict(EXPERIMENT_DEFAULTS[experiment]),
    }


# ---------------------------------------------------------------------------
# deterministic output helpers


def nearest_rank(values, p):
    """Nearest-rank percentile of a sample (p in [0, 100])."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("empty sample")
    k = max(1, math.ceil(p / 100.0 * ordered.size))
    return float(ordered[min(k, ordered.size) - 1])


def summary_stats(values):
    values = np.asarray(values, dtype=float)
    return {
        "min": float(values.min()),
        "p25": nearest_rank(values, 25),
        "p50": nearest_rank(values, 50),
        "p75": nearest_rank(values, 75),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def format_value(x):
    """Canonical CSV cell: '.' decimal separator, scientific notation
    below 1e-3."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.12e}"
    return f"{x:.12g}"


def write_csv(path, header, rows):
    """Write canonical CSV to path, a Path in an existing directory."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# experiments


def run_example1_fixed(cfg, outdir):
    p = cfg.params
    op = build_interface_transfer(p["h_inv"], p["length"], p["width"])
    dense = op.assemble_dense()
    data = weighted_svd(dense)
    s_lo, s_hi = op.source.extremal_eigenvalues()
    r_lo, r_hi = op.range_space.extremal_eigenvalues()

    rows = []
    seeds = itertools.count(cfg.seed)
    for n in p["n_values"]:
        errors = []
        for _ in range(p["runs"]):
            basis = fixed_rank_range(dense, n, RngStream(next(seeds)))
            errors.append(projection_error(dense, basis))
        bound = (a_priori_bound(data.sigmas, n, s_lo, s_hi, r_lo, r_hi)
                 if n >= 4 else "")
        rows.append((n, *summary_stats(errors).values(), data.sigma(n + 1),
                     bound))
    return [write_csv(outdir / "example1-fixed.csv",
                      ["n", "min", "p25", "p50", "p75", "max", "mean",
                       "sigma_next", "a_priori_bound"], rows)]


def run_example1_adaptive(cfg, outdir):
    p = cfg.params
    op = build_interface_transfer(p["h_inv"], p["length"], p["width"])
    dense = op.assemble_dense()

    rows = []
    records = []
    seeds = itertools.count(cfg.seed)
    for tol in p["tols"]:
        errors = []
        for _ in range(p["runs"]):
            seed = next(seeds)
            basis = adaptive_randomized_range(
                dense, tol, p["n_t"], p["eps_algofail"], RngStream(seed))
            err = projection_error(dense, basis)
            errors.append(err)
            records.append({
                "seed": seed,
                "tol": tol,
                "n": len(basis),
                "evaluations": basis.evaluations,
                "exhausted": basis.exhausted,
                "estimator_trace": [d["estimate"] for d in basis.diagnostics],
                "final_error": err,
            })
        # the order statistics, without the mean
        rows.append((tol, *list(summary_stats(errors).values())[:-1]))
    return [
        write_csv(outdir / "example1-adaptive.csv",
                  ["tol", "min", "p25", "p50", "p75", "max"], rows),
        write_jsonl(outdir / "example1-adaptive-diagnostics.jsonl", records),
    ]


def run_example1_hdep(cfg, outdir):
    p = cfg.params
    rows = []
    seeds = itertools.count(cfg.seed)
    for h_inv in p["h_invs"]:
        op = build_interface_transfer(h_inv, p["length"], p["width"])
        dense = op.assemble_dense()
        for n in p["n_values"]:
            errors = []
            ratios = []
            for _ in range(p["runs"]):
                rng = RngStream(next(seeds))
                basis = fixed_rank_range(dense, n, rng)
                err = projection_error(dense, basis)
                residual = ResidualOperator(dense, basis)
                max_norm = float(test_vector_norms(
                    residual, p["n_t"], rng).max())
                errors.append(err)
                ratios.append(max_norm / err)
            rows.append((h_inv, n, nearest_rank(errors, 50),
                         nearest_rank(ratios, 50),
                         2.0 / math.sqrt(h_inv)))
    return [write_csv(outdir / "example1-hdep.csv",
                      ["h_inv", "n", "median_error", "median_test_norm",
                       "sqrt_h_reference"], rows)]


def run_example1_effectivity(cfg, outdir):
    p = cfg.params
    op = build_interface_transfer(p["h_inv"], p["length"], p["width"])
    dense = op.assemble_dense()
    s_lo, s_hi = op.source.extremal_eigenvalues()
    n = p["n"]
    n_o = min(op.source.dim, op.range_space.dim) - n

    rows = []
    seeds = itertools.count(cfg.seed)
    for n_t in p["n_t_values"]:
        etas = []
        for _ in range(p["runs"]):
            rng = RngStream(next(seeds))
            basis = fixed_rank_range(dense, n, rng)
            err = projection_error(dense, basis)
            residual = ResidualOperator(dense, basis)
            delta = norm_estimate(residual, n_t, p["eps_testfail"], rng)
            etas.append(delta / err)
        bound = c_eff(n_t, p["eps_testfail"], n_o, s_lo, s_hi)
        # the order statistics, without the mean
        rows.append((n_t, *list(summary_stats(etas).values())[:-1], bound))
    return [write_csv(outdir / "example1-effectivity.csv",
                      ["n_t", "min", "p25", "p50", "p75", "max", "c_eff"],
                      rows)]


def run_example1_cputable(cfg, outdir):
    p = cfg.params
    t0 = time.perf_counter()
    op = build_interface_transfer(p["h_inv"], p["length"], p["width"])
    t_factor = time.perf_counter() - t0

    rng = RngStream(cfg.seed)
    probe = rng.standard_normal(op.source.dim)
    t0 = time.perf_counter()
    for _ in range(5):
        op.apply(probe)
    t_apply = (time.perf_counter() - t0) / 5.0

    unknowns = op.n_total - op.source.dim

    t0 = time.perf_counter()
    basis = adaptive_randomized_range(
        op, p["tol"], p["n_t"], p["eps_algofail"], RngStream(cfg.seed))
    t_adaptive = time.perf_counter() - t0
    n = len(basis)

    rows = [
        ("transfer_operator", "unknowns", unknowns, unknowns),
        ("transfer_operator", "lu_factorization_s", t_factor, t_factor),
        ("transfer_operator", "operator_evaluation_s", t_apply, t_apply),
        ("basis_generation", "basis_size", n, n),
        ("basis_generation", "operator_evaluations",
         basis.evaluations, 2 * n + 1),
        ("basis_generation", "adjoint_evaluations", 0, 2 * n + 1),
        ("basis_generation", "execution_s", t_adaptive, ""),
    ]
    return [write_csv(outdir / "example1-cputable.csv",
                      ["section", "key", "adaptive", "lanczos_reference"],
                      rows)]


def run_example2_helmholtz(cfg, outdir):
    p = cfg.params
    rows = []
    for kappa in p["kappas"]:
        op = build_interface_transfer(p["h_inv"], p["length"], p["width"],
                                      kappa=kappa)
        data = weighted_svd(op.assemble_dense())
        count = min(p["sigma_count"], data.sigmas.size)
        for i in range(count):
            rows.append((kappa, i + 1, float(data.sigmas[i])))
    return [write_csv(outdir / "example2-helmholtz.csv",
                      ["kappa", "index", "sigma"], rows)]


def run_example4_gfem(cfg, outdir):
    p = cfg.params
    global_rows = []
    patch_rows = []
    # patch stream keys shift the seed, which needs an int
    seeds = itertools.count(int(cfg.seed))
    for field_name in p["fields"]:
        pde, source = gfem_field(field_name)
        mesh = build_gfem_mesh(p["n_cells"])
        problem = build_gfem_problem(mesh, pde, source)
        for tol in p["tols"]:
            for _ in range(p["runs"]):
                seed = next(seeds)
                result, spaces = gfem_run(problem, tol, p["n_t"],
                                          p["eps_algofail"], seed)
                total_evals = sum(s.evaluations for s in spaces)
                global_rows.append((
                    field_name, tol, seed, result.global_error,
                    float(result.local_errors.max()), total_evals,
                    result.dropped_columns))
                for s in spaces:
                    patch_rows.append((
                        field_name, tol, seed, s.patch.pid, s.n_random,
                        s.coords.shape[1], s.evaluations,
                        float(result.local_errors[s.patch.pid])))
    return [
        write_csv(outdir / "example4-gfem-global.csv",
                  ["field", "tol_gfem", "seed", "global_error",
                   "max_local_error", "operator_evaluations",
                   "dropped_columns"], global_rows),
        write_csv(outdir / "example4-gfem-patches.csv",
                  ["field", "tol_gfem", "seed", "patch", "n_random",
                   "combined_dim", "evaluations", "local_error"],
                  patch_rows),
    ]


_RUNNERS = {
    "example1-fixed": run_example1_fixed,
    "example1-adaptive": run_example1_adaptive,
    "example1-hdep": run_example1_hdep,
    "example1-effectivity": run_example1_effectivity,
    "example1-cputable": run_example1_cputable,
    "example2-helmholtz": run_example2_helmholtz,
    "example4-gfem": run_example4_gfem,
}


def run_experiment(cfg):
    """Execute one configured experiment; returns the written paths."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.experiment](cfg, outdir)
