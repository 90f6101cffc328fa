"""Tests of the benchmark itself, at the smoke size.

    python3 -m pytest perfbench/tests -q

They import the package from ``src`` and the benchmark modules from
``perfbench``; the sample processes they start are small.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _statuses(name, seed=1):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed, smoke=True)
    outputs = workload.digest(inputs, workload.run(inputs))
    checks = workload.check(inputs, outputs, workload.expected(inputs), {})
    return [status for _, status in checks]


def _fail_ratio(statuses):
    return sum(1 for s in statuses if s != workloads.PASS) / len(statuses)


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    _, plain = run.run("weight-tables", 1, 0.0, trace=False, smoke=True)
    _, traced = run.run("weight-tables", 1, 0.0, trace=True, smoke=True)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for metric in spec["end_to_end"]:
        assert plain["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert plain["metrics"][metric["name"]]["value"] > 0


def _scale(module, attr, factor, monkeypatch):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: original(*a, **k) * factor)


@pytest.mark.parametrize(
    "name, module, attr",
    [
        ("verify-all", "altsum", "alternating_sum_via_weights"),
        ("deep-oracle", "identities", "digit_zeta_2"),
        ("closed-form", "identities", "j_infinity"),
    ],
)
def test_wrong_evaluator_raises_fail_ratio(name, module, attr, monkeypatch):
    import digitsum

    before = _statuses(name)
    _scale(getattr(digitsum, module), attr, 1.01, monkeypatch)
    after = _statuses(name)
    assert len(after) == len(before)
    assert _fail_ratio(after) > _fail_ratio(before)
    assert workloads.FAIL in after


def test_wrong_weight_table_fails_exactly(monkeypatch):
    import types

    import digitsum

    original = digitsum.altsum.alpha_weights

    def off_by_one(N):
        table = original(N).alpha
        if N != 3:
            return original(N)
        return types.SimpleNamespace(alpha=table[:-1] + (table[-1] + 1,))

    monkeypatch.setattr(digitsum.altsum, "alpha_weights", off_by_one)
    statuses = _statuses("weight-tables")
    assert statuses.count(workloads.FAIL) == 2  # its total and its oracle match


def test_slightly_inaccurate_closed_form_misses_without_failing(monkeypatch):
    import digitsum

    before = _statuses("closed-form")
    _scale(digitsum.identities, "infinite_product", 1.0 + 1e-9, monkeypatch)
    after = _statuses("closed-form")
    assert workloads.FAIL not in after
    assert after.count(workloads.MISS) > before.count(workloads.MISS)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "digitsum" or name.startswith("digitsum.")
        for attr, value in module.__dict__.items()
    }


def test_wrappers_leave_no_patched_names():
    import digitsum
    from digitsum.solver import SequenceFn

    before = _bindings()
    block = SequenceFn.__dict__.get("block")
    with tracer.Tracer():
        # wrapped as defined and under each name a caller looks it up by
        for module in ("digitseq", "identities", "harness", "altsum"):
            value = getattr(digitsum, module).digit_sum_range
            assert getattr(value, "__wrapped_by_tracer__", False), module
        assert block is None or SequenceFn.__dict__["block"] is not block
        assert tracer.leftover_wrappers()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert SequenceFn.__dict__.get("block") is block
    assert tracer.leftover_wrappers() == []


def test_tracer_self_time_excludes_children():
    import digitsum

    with tracer.Tracer() as trace:
        digitsum.identities.infinite_barnes(2, 3.0, 0.5)
    spans = trace.snapshot()["spans"]
    calls, total, own = spans["identities.infinite_barnes"]
    assert calls == 1 and 0 < own < total
    assert spans["specfun.barnes_zeta2"][0] > 0
    assert trace.covered == pytest.approx(total)


def test_traced_run_reports_coverage_and_repeats_counts():
    first = run.run("verify-all", 1, 0.0, trace=True, smoke=True)[1]
    second = run.run("verify-all", 1, 0.0, trace=True, smoke=True)[1]
    assert first["correct"] and second["correct"]
    coverage = first["metrics"]["trace.coverage"]["value"]
    assert 0.5 < coverage <= 1.0
    assert "trace.overhead_s" in first["metrics"]
    assert first["metrics"]["harness.points"]["value"] > 0
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k] for k in counts}


def test_closed_form_inputs_follow_the_seed():
    make = workloads.WORKLOADS["closed-form"].inputs
    assert make(5) == make(5)
    assert make(5) != make(6)
    named = [p for p in make(5)["points"] if p["named"]]
    assert [(p["fn"], tuple(p["args"])) for p in named] == workloads.NAMED_POINTS


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
