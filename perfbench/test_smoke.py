"""Smoke test of the benchmark itself: a tiny run of every workload.

Checks that every metric BENCHMARK.json names comes out with its unit,
that outputs pass their checks, and that the counters METRICS.json
marks ``exact`` repeat across two traced runs of one seed.  Run from
the root of a checkout (takes a few minutes)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-sim", "sweep-cold", "serve-mix")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "METRICS.json")) as fh:
    NOTES = json.load(fh)


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_named(result, section):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float)


def test_notes_cover_every_metric_and_workload():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(NOTES["per_layer"]) == per_layer
    ends = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for name, doc in NOTES["per_layer"].items():
        assert doc["kind"] in NOTES["kinds"], name
        assert set(doc["moves"]) <= ends, name
        assert set(doc["on"]) | set(doc["flat_on"]) <= workloads, name
    assert set(NOTES["workloads"]) == workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    assert_named(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    assert_named(first, "per_layer")
    exact = [n for n, doc in NOTES["per_layer"].items()
             if doc["kind"] == "exact"]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}
    assert first["metrics"]["accel_cycles"]["value"] > 0
    assert first["metrics"]["sim.calls_per_cycle"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero and
    prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "eval-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
