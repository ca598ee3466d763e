"""Tests of the benchmark harness itself (not of locmor)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import locmor  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert e2e == run.END_TO_END
    assert layers == tracer.layer_metric_names() + list(run.TRACE_GAUGES)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def _bindings():
    """Every attribute of every locmor module and class, by identity."""
    found = {}
    for mod in tracer.locmor_modules():
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    found[(mod.__name__, key, attr)] = member
    return found


def _assert_unpatched(before):
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _tiny_adaptive():
    op = locmor.build_interface_transfer(6, width=1.0)
    return locmor.adaptive_randomized_range(op, 1e-2, 4, 1e-6,
                                            locmor.RngStream(1))


def test_wrappers_patch_from_imports_and_are_removed():
    before = _bindings()
    recorder = tracer.SpanRecorder()
    with tracer.Tracer(recorder):
        # names bound by `from .x import y` are wrapped too
        assert hasattr(locmor.gfem.adaptive_randomized_range, "bench_span")
        assert hasattr(locmor.rangefinder.erf_inv, "bench_span")
        assert hasattr(locmor.TransferOperator.apply, "bench_span")
        with recorder.operation("op-0", "bench.op"):
            _tiny_adaptive()
    names = {span[1] for span in recorder.spans}
    assert {"problems.build", "linalg.factorize", "transfer.apply",
            "rangefinder.adaptive", "special"} <= names
    _assert_unpatched(before)


def test_traced_run_leaves_no_wrappers():
    before = _bindings()
    workload = workloads.InterfaceMatfree(workloads.InterfaceMatfree.TINY)
    raw = run.run_workload(workload, seed=2, seconds=0.05, trace=1)
    assert any(raw["traced"]) and not all(raw["traced"])
    assert raw["failed"] == 0
    _assert_unpatched(before)


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.Tracer(tracer.SpanRecorder()):
            locmor.build_interface_transfer(6).apply(np.zeros(1))
    _assert_unpatched(before)


def test_self_times_exclude_child_spans():
    recorder = tracer.SpanRecorder()
    with recorder.operation("op-0", "bench.op"):
        outer = recorder.begin("outer")
        inner = recorder.begin("inner")
        recorder.end(inner, inner[2] + 2.0)
        recorder.end(outer, outer[2] + 5.0)
    spans = {s[1]: s for s in recorder.spans}
    assert spans["inner"][6] == pytest.approx(2.0)
    assert spans["outer"][6] == pytest.approx(3.0)
    assert spans["inner"][4] == spans["outer"][0]


def test_a_different_seed_gives_different_inputs():
    workload = workloads.InterfaceMatfree(workloads.InterfaceMatfree.TINY)
    op = workload.setup()

    def estimate(seed):
        return workload.operation(op, 0, run.op_seed(seed, 0)).gauges[
            "estimate"]

    assert estimate(3) == estimate(3)
    assert estimate(3) != estimate(4)
    ops = range(10_000)
    assert not {run.op_seed(3, i) for i in ops} & \
        {run.op_seed(4, i) for i in ops}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == (9, 10)
    p, beyond = run.tail_percentile(1000)
    assert (p, beyond) == (99, 10)
    assert run.nearest_rank(list(range(1, 101)), 50) == 50


def _tiny_results(workload, trace):
    """Result lines of a tiny run; a run of 'all' gives one per workload."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert json.loads(proc.stdout.splitlines()[-1]) == results[-1]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
    return results


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(workload):
    assert len(_tiny_results(workload, 1)) == 1


def test_one_command_runs_every_workload_and_emits_every_metric():
    results = _tiny_results("all", 0)
    assert len(results) == len(workloads.WORKLOADS)


def test_run_without_the_library_fails_without_a_result(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interface-matfree",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
