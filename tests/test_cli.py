import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locmor
from locmor.cli import main
from locmor.experiments import (EXPERIMENT_DEFAULTS, EXPERIMENT_IDS,
                                PARAM_RULES, ExperimentConfig,
                                default_config, format_value, nearest_rank,
                                summary_stats)
from locmor.rangefinder import RngStream

SMALL_FIXED = {
    "schema_version": 1,
    "experiment": "example1-fixed",
    "seed": 0,
    "out": "results",
    "params": {"h_inv": 10, "n_values": [0, 1, 2], "runs": 3},
}

SMALL_ADAPTIVE = {
    "schema_version": 1,
    "experiment": "example1-adaptive",
    "seed": 0,
    "out": "results",
    "params": {"h_inv": 10, "tols": [1e-2], "n_t": 3, "runs": 4},
}


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == EXPERIMENT_IDS


def test_public_names_resolve():
    assert len(set(locmor.__all__)) == len(locmor.__all__)
    for name in locmor.__all__:
        assert getattr(locmor, name) is not None, name


def test_defaults_round_trip_all_experiments(capsys):
    for exp in EXPERIMENT_IDS:
        assert main(["defaults", exp]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["schema_version"] == 1
        parsed = ExperimentConfig.from_dict(cfg)
        assert parsed.params == EXPERIMENT_DEFAULTS[exp]


def test_defaults_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["defaults", "nonsense"])
    assert exc.value.code == 2


def test_run_requires_config_flag():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_run_writes_declared_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_FIXED)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1
    csv = tmp_path / "a" / "example1-fixed.csv"
    assert printed[0] == str(csv)
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n,min,p25,p50")
    assert len(lines) == 1 + 3


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_FIXED)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "example1-fixed.csv").read_bytes()
    b = (tmp_path / "b" / "example1-fixed.csv").read_bytes()
    assert a == b


def test_seed_override_changes_sampled_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_FIXED)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "7"])
    capsys.readouterr()
    a = (tmp_path / "a" / "example1-fixed.csv").read_bytes()
    b = (tmp_path / "b" / "example1-fixed.csv").read_bytes()
    assert a != b


def test_runs_override_reaches_params(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_ADAPTIVE)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a"),
          "--runs", "2"])
    capsys.readouterr()
    diag = tmp_path / "a" / "example1-adaptive-diagnostics.jsonl"
    records = [json.loads(line) for line in
               diag.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 2
    assert {r["seed"] for r in records} == {0, 1}
    assert all(r["evaluations"] == r["n"] + 3 for r in records)


def test_config_rejects_unknown_keys():
    bad = dict(SMALL_FIXED)
    bad["color"] = "red"
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_unknown_experiment():
    bad = dict(SMALL_FIXED)
    bad["experiment"] = "example9-dynamo"
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_unknown_params():
    bad = dict(SMALL_FIXED)
    bad["params"] = {"h_inv": 10, "bogus": 1}
    with pytest.raises(ValueError, match="unknown parameters"):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_schema_mismatch():
    bad = dict(SMALL_FIXED)
    bad["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentConfig.from_dict(bad)
    missing = dict(SMALL_FIXED)
    del missing["schema_version"]
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentConfig.from_dict(missing)


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig("example1-fixed", runs=0)
    for key in ("seed", "runs"):
        for bad in (True, "3", 1.5, float("nan"), [2]):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig("example1-fixed", **{key: bad})
    for key in ("runs", "n_t", "h_inv"):
        for bad in (0, -2, "10", 2.5, False):
            with pytest.raises(ValueError, match=f"params {key}"):
                ExperimentConfig("example1-adaptive", params={key: bad})
    with pytest.raises(ValueError, match="params n_cells"):
        ExperimentConfig("example4-gfem", params={"n_cells": 0})
    # integral floats pass; the seed is kept as given since runs write it
    cfg = ExperimentConfig("example1-adaptive", seed=5.0, runs=2.0,
                           params={"n_t": 3.0, "h_inv": 10.0})
    gfem = ExperimentConfig("example4-gfem", params={"n_cells": 20.0})
    assert cfg.seed == 5.0 and isinstance(cfg.seed, float)
    for value, want in ((cfg.runs, 2), (gfem.params["n_cells"], 20),
                        (cfg.params["runs"], 2), (cfg.params["n_t"], 3),
                        (cfg.params["h_inv"], 10)):
        assert value == want and type(value) is int


def test_config_rejects_bad_list_and_real_params():
    bad_params = {
        "example1-hdep": [{"h_invs": [0]}, {"h_invs": [20, 2.5]},
                          {"h_invs": 20}, {"n_values": [-1]}],
        "example1-fixed": [{"n_values": [-1]}, {"n_values": ["2"]}],
        "example1-effectivity": [{"n_t_values": [0]}, {"n": 0},
                                 {"eps_testfail": 1.0}, {"eps_testfail": 0}],
        "example1-adaptive": [{"tols": [-1e-2]}, {"tols": [0.0]},
                              {"tols": [float("inf")]}, {"tols": [True]},
                              {"eps_algofail": 1.5}],
        "example1-cputable": [{"tol": 0.0}, {"tol": float("nan")},
                              {"eps_algofail": 0.0}, {"length": -1},
                              {"width": 0}, {"width": float("nan")}],
        "example2-helmholtz": [{"kappas": [float("inf")]},
                               {"kappas": ["10"]}, {"sigma_count": 0}],
        "example4-gfem": [{"tols": [-1e-4]}, {"eps_algofail": "1e-15"},
                          {"fields": ["nope"]}, {"fields": "uniform"},
                          {"fields": ["uniform", 1]}],
    }
    for experiment, cases in bad_params.items():
        for params in cases:
            (key,) = params
            with pytest.raises(ValueError, match=f"params {key}"):
                ExperimentConfig(experiment, params=params)
    # channel extents must be integer multiples of every mesh spacing
    for experiment, params, key in (
            ("example1-fixed", {"h_inv": 10, "width": 0.35}, "width"),
            ("example1-adaptive", {"h_inv": 10, "length": 0.05}, "length"),
            ("example1-hdep", {"h_invs": [40, 20], "length": 0.075},
             "length")):
        with pytest.raises(ValueError, match=f"params {key} must be an "
                                             "integer multiple"):
            ExperimentConfig(experiment, params=params)
    ExperimentConfig("example1-fixed", params={"h_inv": 20, "width": 0.35})
    ExperimentConfig("example1-hdep", params={"h_invs": [40],
                                              "length": 0.075})
    # list entries pass as given, except that integral floats become int
    cfg = ExperimentConfig("example1-hdep",
                           params={"h_invs": [20.0, 10], "n_values": [0]})
    assert cfg.params["h_invs"] == [20, 10]
    assert type(cfg.params["h_invs"][0]) is int
    cfg = ExperimentConfig("example2-helmholtz",
                           params={"kappas": [-1.0, 0, 12.5]})
    assert cfg.params["kappas"] == [-1.0, 0, 12.5]


def test_every_default_parameter_has_one_rule():
    # no parameter passes unchecked, and no rule is left without one
    names = set().union(*EXPERIMENT_DEFAULTS.values())
    assert names == set(PARAM_RULES)


def test_config_seed_range_keeps_stream_keys_below_2_128():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig("example1-fixed", seed=-1)
    # 3 n_values x 3 runs draw from keys seed .. seed + 8
    params = {"n_values": [0, 1, 2], "runs": 3}
    cfg = ExperimentConfig("example1-fixed", seed=2**128 - 9, params=params)
    RngStream(cfg.seed + 8)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig("example1-fixed", seed=2**128 - 8, params=params)
    # 1 field x 1 tol x 2 runs; patch streams key ((seed + i) << 32) + pid
    params = {"fields": ["uniform"], "tols": [1e-2], "runs": 2}
    cfg = ExperimentConfig("example4-gfem", seed=2**96 - 2, params=params)
    RngStream(((cfg.seed + 1) << 32) + 2**32 - 1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig("example4-gfem", seed=2**96 - 1, params=params)
    with pytest.raises(ValueError):
        RngStream(2**128)


def _entry_point_command():
    """The command pip's generated `locmor` wrapper runs, built from the
    [project.scripts] entry in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["locmor"]
    module, function = entry.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {function}; "
            f"sys.exit({function}())"]


def _rejected_run_args(tmp_path, out):
    """The `run` arguments of every config the CLI must reject before it
    writes anything into out."""
    bad = dict(SMALL_FIXED)
    bad["schema_version"] = 99
    good = _write_config(tmp_path, SMALL_FIXED)
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{schema_version: 1", encoding="utf-8")
    not_object = tmp_path / "list.json"
    not_object.write_text("[1]", encoding="utf-8")
    invalid = [
        {**SMALL_FIXED, "seed": "3"},
        {**SMALL_FIXED, "threads": 1},
        {**SMALL_FIXED, "runs": True},
        {**SMALL_FIXED, "seed": 1.5},
        {**SMALL_FIXED, "params": {**SMALL_FIXED["params"], "runs": 0}},
        {**SMALL_ADAPTIVE, "params": {**SMALL_ADAPTIVE["params"], "n_t": 0}},
        {**SMALL_FIXED, "params": {**SMALL_FIXED["params"], "h_inv": "10"}},
        {**SMALL_FIXED, "experiment": "example4-gfem",
         "params": {"n_cells": 0}},
        {**SMALL_FIXED, "experiment": "example4-gfem",
         "params": {"n_cells": 25}},
        {**SMALL_FIXED, "experiment": "example1-hdep",
         "params": {"h_invs": [0]}},
        {**SMALL_ADAPTIVE, "params": {**SMALL_ADAPTIVE["params"],
                                      "tols": [-1e-2]}},
        {**SMALL_FIXED, "experiment": "example1-effectivity",
         "params": {"n_t_values": [0]}},
        # the remainder rank width * h_inv + 1 - n of c_eff is zero
        {**SMALL_FIXED, "experiment": "example1-effectivity",
         "params": {"h_inv": 10, "n": 11}},
        {**SMALL_FIXED, "params": {**SMALL_FIXED["params"],
                                   "n_values": [-1]}},
        {**SMALL_FIXED, "experiment": "example4-gfem",
         "params": {"fields": ["nope"]}},
        {**SMALL_FIXED, "params": {**SMALL_FIXED["params"], "width": 0.35}},
        {**SMALL_FIXED, "params": {**SMALL_FIXED["params"], "length": -1}},
        # 2 (50 * 100 + 1) = 10,002 source dofs, above the dense guard
        {**SMALL_FIXED, "params": {"h_inv": 100, "length": 0.01,
                                   "width": 50}},
        {**SMALL_FIXED, "params": 5},
        {**SMALL_FIXED, "experiment": ["x"]},
        {key: value for key, value in SMALL_FIXED.items()
         if key != "experiment"},
        # experiments without Monte Carlo runs refuse a runs count
        {**SMALL_FIXED, "experiment": "example1-cputable", "params": {},
         "runs": 7},
    ]
    helmholtz = _write_config(
        tmp_path, {**SMALL_FIXED, "experiment": "example2-helmholtz",
                   "params": {}}, "helmholtz.json")
    cases = [[*args, "--out", str(out)] for args in (
        ["--config", _write_config(tmp_path, bad, "bad.json")],
        *(["--config", _write_config(tmp_path, cfg, f"inv{i}.json")]
          for i, cfg in enumerate(invalid)),
        ["--config", str(tmp_path / "missing.json")],
        ["--config", str(malformed)],
        ["--config", str(not_object)],
        ["--config", good, "--runs", "0"],
        ["--config", good, "--seed", "-1"],
        ["--config", helmholtz, "--runs", "7"])]
    # a malformed out key, with no --out to override it
    cases.append(["--config", _write_config(
        tmp_path, {**SMALL_FIXED, "out": 3}, "out.json")])
    return cases


def _assert_rejected(returncode, stderr, out, args):
    """Exit 2, exactly one `locmor: error: ` line and no traceback on
    stderr, and no output directory."""
    assert returncode == 2, (args, stderr)
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("locmor: error: "), \
        (args, stderr)
    assert not out.exists()


def test_rejected_configs_exit_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    for args in _rejected_run_args(tmp_path, out):
        returncode = main(["run", *args])
        _assert_rejected(returncode, capsys.readouterr().err, out, args)


def test_unusable_out_path_exits_2_with_one_line(tmp_path, capsys):
    # --out naming an existing file, or a path beneath one, leaves no
    # room for the output directory: a usage error, like a bad config
    cfg = _write_config(tmp_path, SMALL_FIXED)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept", encoding="utf-8")
    for out in (blocker, blocker / "out"):
        args = ["run", "--config", cfg, "--out", str(out)]
        _assert_rejected(main(args), capsys.readouterr().err,
                         blocker / "out", args)
    assert blocker.read_text(encoding="utf-8") == "kept"


def test_resonant_kappa_exits_2_with_one_line(tmp_path, capsys):
    # kappa at a discrete eigenvalue of the 1/h = 10 channel, as in
    # test_linalg: the factorization refuses it, and no CSV is written;
    # of the nested --out, only the directories the run created are
    # removed
    cfg = _write_config(tmp_path, {
        "schema_version": 1, "experiment": "example2-helmholtz",
        "params": {"h_inv": 10, "kappas": [1.5724117312772443]}})
    kept = tmp_path / "kept"
    kept.mkdir()
    out = kept / "a" / "b"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("locmor: error: near-resonant or singular")
    assert not (kept / "a").exists()
    assert kept.is_dir()


def test_dense_guard_exits_2_before_meshing(tmp_path, capsys, monkeypatch):
    # 1/h = 100 on a 0.01 x 50 channel gives 10,002 source dofs, above
    # DENSE_GUARD: the config is refused before any mesh is built
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed a config above the dense guard")

    monkeypatch.setattr(locmor.problems, "build_rect_mesh", no_mesh)
    cfg = _write_config(tmp_path, {
        "schema_version": 1, "experiment": "example1-fixed",
        "params": {"h_inv": 100, "length": 0.01, "width": 50,
                   "n_values": [0], "runs": 1}})
    out = tmp_path / "out"
    args = ["run", "--config", cfg, "--out", str(out)]
    returncode = main(args)
    stderr = capsys.readouterr().err
    _assert_rejected(returncode, stderr, out, args)
    assert stderr.startswith("locmor: error: dense assembly of 10002")


@pytest.mark.parametrize("experiment, params", [
    ("example1-adaptive", {"h_inv": 100, "width": 50}),
    ("example1-effectivity", {"h_inv": 100, "width": 50}),
    ("example2-helmholtz", {"h_inv": 100, "width": 50}),
    # the second of the h_invs trips it
    ("example1-hdep", {"h_invs": [10, 100], "length": 0.1, "width": 50}),
])
def test_config_checks_the_dense_guard(experiment, params):
    with pytest.raises(ValueError, match="dense assembly of 10002 columns"):
        ExperimentConfig(experiment, params=params)
    # 9,982 source dofs pass, and the matrix-free run is not guarded
    ExperimentConfig(experiment, params={**params, "width": 49.9})
    ExperimentConfig("example1-cputable", params={"h_inv": 100, "width": 50})


def test_console_script_and_error_exit_codes(tmp_path):
    # the entry-point wiring: a listing, one rejected config (the rest
    # of the table runs in-process above) and an unknown flag
    command = _entry_point_command()
    done = subprocess.run(command + ["list"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == EXPERIMENT_IDS

    out = tmp_path / "out"
    args = ["run", *_rejected_run_args(tmp_path, out)[0]]
    done = subprocess.run(command + args, capture_output=True, text=True)
    _assert_rejected(done.returncode, done.stderr, out, args)

    # an unknown flag gets argparse's usage line and one error line
    good = _write_config(tmp_path, SMALL_FIXED)
    done = subprocess.run(command + ["run", "--config", good, "--threads",
                                     "2", "--out", str(out)],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("locmor: error: ")]
    assert len(errors) == 1 and "--threads" in errors[0], done.stderr
    assert not out.exists()


@pytest.mark.skipif(shutil.which("locmor") is None,
                    reason="locmor console script not on PATH")
def test_installed_console_script_matches_entry_point(tmp_path):
    bad = dict(SMALL_FIXED)
    bad["schema_version"] = 99
    cfg = _write_config(tmp_path, bad, "bad.json")
    for args in (["list"], ["run", "--config", cfg]):
        installed = subprocess.run([shutil.which("locmor"), *args],
                                   capture_output=True, text=True)
        expected = subprocess.run(_entry_point_command() + args,
                                  capture_output=True, text=True)
        assert installed.returncode == expected.returncode
        assert installed.stdout == expected.stdout


def test_module_entry_point_matches_script():
    done = subprocess.run([sys.executable, "-m", "locmor", "list"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines() == EXPERIMENT_IDS


# runs `python -m locmor list`, then prints the live thread count of
# numpy's and of scipy's bundled OpenBLAS
_READ_BLAS_THREADS = """
import ctypes, runpy, sys
from pathlib import Path
import numpy, scipy.linalg
sys.argv = ["locmor", "list"]
try:
    runpy.run_module("locmor", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
for package, libdir, pattern, suffix in (
        (numpy, "numpy.libs", "libscipy_openblas64_*.so", "64_"),
        (scipy, "scipy.libs", "libscipy_openblas-*.so", "")):
    site = Path(package.__file__).resolve().parent.parent / libdir
    (path,) = site.glob(pattern)
    lib = ctypes.CDLL(str(path))
    print(getattr(lib, "scipy_openblas_get_num_threads" + suffix)(),
          file=sys.stderr)
"""


def test_module_entry_point_pins_blas_to_one_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    done = subprocess.run([sys.executable, "-c", _READ_BLAS_THREADS],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == EXPERIMENT_IDS
    assert done.stderr.split() == ["1", "1"]


# ---------------------------------------------------------------------------
# percentile and formatting invariants


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=32),
                min_size=1, max_size=41).filter(lambda v: len(v) % 2 == 1))
@settings(deadline=None, derandomize=True, max_examples=60)
def test_p50_of_odd_sample_is_middle_order_statistic(values):
    middle = float(np.sort(np.asarray(values))[len(values) // 2])
    assert nearest_rank(values, 50) == middle


def test_nearest_rank_returns_sample_elements():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(17)
    for p in (0, 10, 25, 50, 75, 90, 100):
        assert nearest_rank(values, p) in values
    assert nearest_rank(values, 0) == values.min()
    assert nearest_rank(values, 100) == values.max()
    stats = summary_stats(values)
    assert stats["min"] <= stats["p25"] <= stats["p50"]
    assert stats["p50"] <= stats["p75"] <= stats["max"]
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_format_value_is_canonical():
    assert format_value(0.0) == "0"
    assert format_value(3) == "3"
    assert format_value(np.int64(5)) == "5"
    assert format_value("tag") == "tag"
    assert format_value(0.25) == "0.25"
    small = format_value(1.25e-7)
    assert "e" in small and small == f"{1.25e-7:.12e}"
    assert "," not in format_value(1234567.875)
