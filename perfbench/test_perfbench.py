"""Tests of the benchmark itself (not of the package):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import analysis
import cli_cold
import common
import queries
import run
import tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

common.use_checkout_sources()


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _observed_units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    result, report = run.run_workload(workload, seed=3, seconds=0.01, trace=False, size="smoke")
    assert _observed_units(result) == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    assert report["op_samples"] == result["attempted"]
    assert report["op_tail_ms"] >= report["op_p50_ms"] > 0

    traced, _ = run.run_workload(workload, seed=3, seconds=0.01, trace=True, size="smoke")
    assert _observed_units(traced) == _units("per_layer")
    assert traced["correct"]


def test_gated_times_add_up_each_operations_fastest_repeat():
    metrics, report = common.op_metrics([0.1, 0.1], [0.3, 0.1, 0.1, 0.4, 0.2, 0.2])
    assert metrics["wall_s"][0] == pytest.approx(0.2)
    assert metrics["ops_per_s"][0] == pytest.approx(10.0)
    assert report["op_samples"] == 6


def test_traced_counts_repeat_exactly():
    first, _ = run.run_workload("queries", seed=5, seconds=0, trace=True, size="smoke")
    second, _ = run.run_workload("queries", seed=5, seconds=0, trace=True, size="smoke")
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["groups.op.calls"]["value"] > 0


def _run_and_check(wl, seed, doctor=None):
    _, mods, built = common.timed_setup(lambda m: wl.build(m, "smoke"), 1)
    inputs = wl.generate(mods, built, seed, "smoke")
    if doctor is not None:
        doctor(inputs)
    answers = common.Answers()
    answers.add_pass(common.run_pass(wl.operations(mods, built, inputs))[1])
    return wl.check(mods, built, inputs, answers)


def test_doctored_query_answer_is_counted():
    assert _run_and_check(queries, 7).count == 0

    def flip(questions):
        questions[0]["expect"] = not questions[0]["expect"]
    failures = _run_and_check(queries, 7, flip)
    assert failures.count == failures.unexpected == 1


def test_doctored_exit_code_is_counted():
    clean = _run_and_check(cli_cold, 7)
    assert clean.count == 3 and clean.unexpected == 0

    def wrong_exit(specs):
        spec = next(s for s in specs if s["exit"] == 0)
        spec["exit"] = 1
    doctored = _run_and_check(cli_cold, 7, wrong_exit)
    assert doctored.count == 4 and doctored.unexpected == 1


def test_doctored_analysis_answer_makes_the_run_incorrect(monkeypatch):
    expect = dict(analysis.SIZES["smoke"]["expect"], tower={"sizes": [2, 1], "transitive": True})
    monkeypatch.setitem(analysis.SIZES["smoke"], "expect", expect)
    result, report = run.run_workload("analysis", seed=3, seconds=0, trace=False, size="smoke")
    assert not result["correct"] and result["failed"] == 1
    assert report["error_rate"] == 1 / len(analysis.TASKS)
    assert report["witnesses"][0]["task"] == "tower"


def _namespace_snapshot(mods):
    """Identity of every module global, class attribute and entry of a
    module-level dict in the package."""
    snap = {}
    for mname, mod in mods.items():
        for name, value in vars(mod).items():
            snap[(mname, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, v in vars(value).items():
                    snap[(mname, name, attr)] = v
            elif isinstance(value, dict) and name != "__builtins__":
                for k, v in value.items():
                    snap[(mname, name, "[%r]" % (k,))] = v
    return snap


def test_tracer_leaves_no_function_patched():
    mods = common.fresh_import()
    before = _namespace_snapshot(mods)
    t = tracer.Tracer(mods)
    with t:
        during = _namespace_snapshot(mods)
        changed = [k for k in before if during.get(k) is not before[k]]
        assert ("cli", "HANDLERS", "['check']") in changed
        assert ("translations", "related_k") in changed
        assert ("cubespace", "Cubespace", "membership") in changed
        mods["cli"].run({"kind": "factorize", "group": {"type": "heisenberg", "modulus": 2},
                         "filtration": {"type": "lcs"}, "cube": {"n": 1, "values": [0, 1]}})
    after = _namespace_snapshot(mods)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert t.calls("cubegroups.factorize") == 1 and t.calls("cli.handler") == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
