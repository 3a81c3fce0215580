"""Failure-injection tests for the sweep supervisor.

Chaos is injected through the ``REPRO_CHAOS`` environment variable
(inherited by pool workers), labelled by point index: ``kill``
SIGKILLs the worker evaluating a given point — once (a transient
death) when a spend-flag path is given, every attempt (poison)
otherwise; ``hang`` sleeps to trip the supervisor's per-point
deadline.
The claims under test:

* a worker death breaks the pool; the supervisor respawns it and the
  sweep still completes, with the in-flight points re-evaluated;
* a point that kills workers twice is quarantined
  (:class:`PoisonPointError`, exit 11) and the rest of the sweep
  survives;
* deterministic failures (a deadlock, a bad pass, a sim timeout) are
  never retried;
* SIGINT checkpoints the journal; ``resume`` finishes only the
  missing points and reproduces the identical Pareto front;
* two processes sharding one journal evaluate each point exactly
  once.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.api import EvaluationRequest
from repro.dse import GridSpace, RetryPolicy, SweepJournal, explore, \
    resume
from repro.dse.engine import _evaluate_group
from repro.errors import SweepInterrupted
from repro.sim import SimParams

TEMPLATE = "localize,banking={banks}"
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01,
                         jitter=0.0)


def _chaos(monkeypatch, **spec):
    monkeypatch.setenv("REPRO_CHAOS", json.dumps(spec))


class TestWorkerDeath:
    def test_sigkill_once_point_retried_sweep_completes(
            self, tmp_path, monkeypatch):
        _chaos(monkeypatch, kill={
            "label": 1, "flag": str(tmp_path / "spent")})
        report = explore(
            "saxpy", GridSpace({"banks": [1, 2, 4]}),
            pipeline=TEMPLATE, workers=2, cache=None,
            journal=str(tmp_path / "sweeps"), retry=FAST_RETRY)
        assert report.counts["ok"] == 3
        assert report.durability["worker_deaths"] >= 1
        assert report.durability["retries"] >= 1
        # the killed point needed more than one attempt
        assert report.point(1).attempts > 1

    def test_poison_point_quarantined_rest_survives(
            self, tmp_path, monkeypatch):
        _chaos(monkeypatch, kill={"label": 1})
        report = explore(
            "saxpy", GridSpace({"banks": [1, 2, 4]}),
            pipeline=TEMPLATE, workers=2, cache=None,
            journal=str(tmp_path / "sweeps"), retry=FAST_RETRY)
        assert report.counts["ok"] == 2
        assert report.counts["quarantined"] == 1
        poison = report.point(1)
        assert poison.quarantined
        assert poison.error["error"] == "PoisonPointError"
        assert poison.error["exit_code"] == 11
        assert poison.error["deaths"] >= 2
        # the journal agrees, so a resume will not re-run the poison
        journal = SweepJournal(str(tmp_path / "sweeps"),
                               report.sweep_id)
        assert journal.state().counts["quarantined"] == 1

    def test_supervisor_timeout_kills_hung_worker(
            self, tmp_path, monkeypatch):
        _chaos(monkeypatch, hang={
            "label": 0, "seconds": 60,
            "flag": str(tmp_path / "spent")})
        report = explore(
            "saxpy", GridSpace({"banks": [1, 2]}),
            pipeline=TEMPLATE, workers=2, cache=None,
            journal=str(tmp_path / "sweeps"), retry=FAST_RETRY,
            point_timeout=1.5)
        assert report.counts["ok"] == 2
        assert report.durability["timeouts"] >= 1
        assert report.point(0).attempts > 1


class TestRetryClassification:
    def test_deterministic_failure_never_retried(self, tmp_path):
        # max_cycles=10 forces a SimulationTimeout: a property of the
        # point, not the environment — exactly one attempt allowed.
        report = explore(
            "saxpy", GridSpace({"banks": [1]}),
            pipeline=TEMPLATE, workers=2, cache=None,
            sim=SimParams(max_cycles=10),
            journal=str(tmp_path / "sweeps"), retry=FAST_RETRY)
        point = report.points[0]
        assert not point.ok
        assert point.error["error"] == "SimulationTimeout"
        assert point.attempts == 1
        assert report.durability["retries"] == 0
        journal = SweepJournal(str(tmp_path / "sweeps"),
                               report.sweep_id)
        errors = [r for r in journal.records()[0]
                  if r["ev"] == "error"]
        assert len(errors) == 1 and errors[0]["final"] is True

    def test_worker_error_documents_carry_family(self, monkeypatch):
        # Satellite: the blanket except in _evaluate_group returns a
        # structured document, not a bare name/message pair.
        import repro.dse.engine as engine_mod

        def boom(_name):
            raise ValueError("wired to fail")

        monkeypatch.setattr(engine_mod, "get_workload", boom)
        out = _evaluate_group([_payload("localize")])[0]
        doc = out["error"]
        assert doc["error"] == "ValueError"
        assert doc["family"] == "deterministic"
        assert doc["exit_code"] == 1
        assert any("wired to fail" in line
                   for line in doc["traceback"])

    def test_repro_error_documents_carry_family(self):
        out = _evaluate_group([_payload("no_such_pass")])[0]
        doc = out["error"]
        assert doc["error"] == "ReproError"  # unknown pass name
        assert doc["family"] == "deterministic"
        assert "traceback" not in doc  # expected errors stay terse


def _payload(passes: str) -> dict:
    """A one-point worker payload for saxpy under ``passes``."""
    request = EvaluationRequest(workload="saxpy", passes=passes,
                                sim={"kernel": "dense"})
    return {"index": 0, "request": request.to_json(),
            "cache_root": None}


def _interrupted_sweep(sweeps_dir: str):
    """Run a journaled sweep that SIGINTs itself after the first
    settled point; returns the raised SweepInterrupted."""
    def prog(point):
        prog.n += 1
        if prog.n == 1:
            os.kill(os.getpid(), signal.SIGINT)
    prog.n = 0
    with pytest.raises(SweepInterrupted) as info:
        explore("saxpy", GridSpace({"banks": [1, 2, 4, 8]}),
                pipeline=TEMPLATE, workers=1, cache=None,
                journal=sweeps_dir, progress=prog)
    return info.value


class TestInterruptAndResume:
    def test_sigint_checkpoints_and_resume_completes(self, tmp_path):
        sweeps = str(tmp_path / "sweeps")
        exc = _interrupted_sweep(sweeps)
        assert exc.completed < exc.total == 4
        assert "--resume" in str(exc)
        journal = SweepJournal(sweeps, exc.sweep_id)
        state = journal.state()
        assert state.interrupted == 1
        settled_before = {k for k, p in state.points.items()
                         if p.settled}
        assert settled_before  # the checkpoint preserved finished work

        report = resume(exc.sweep_id, sweeps_dir=sweeps, workers=1)
        assert report.counts["ok"] == 4
        assert report.counts["resumed"] == len(settled_before)
        # only the missing points were evaluated
        fresh = {p.index for p in report.points
                 if p.source == "fresh"}
        assert len(fresh) == 4 - len(settled_before)

    def test_resumed_pareto_identical_to_uninterrupted(self, tmp_path):
        baseline = explore(
            "saxpy", GridSpace({"banks": [1, 2, 4, 8]}),
            pipeline=TEMPLATE, workers=1, cache=None,
            journal=str(tmp_path / "a"))
        exc = _interrupted_sweep(str(tmp_path / "b"))
        resumed = resume(exc.sweep_id,
                         sweeps_dir=str(tmp_path / "b"), workers=1)
        assert resumed.pareto == baseline.pareto
        for a, b in zip(baseline.points, resumed.points):
            assert (a.cycles, a.verified, a.synth) == \
                (b.cycles, b.verified, b.synth)

    def test_resume_restores_points_recorded_with_stats(self, tmp_path):
        # Journals written before sweep points dropped SimStats carry a
        # `stats` entry in their done documents, and their cycle
        # counts came from the canonical rebuild the old evaluator
        # simulated.  They still resume: settled points come back with
        # their recorded cycles, the rest are evaluated now.
        sweeps = str(tmp_path / "sweeps")
        exc = _interrupted_sweep(sweeps)
        path = os.path.join(sweeps, exc.sweep_id, "journal.jsonl")
        recorded = {}
        lines = []
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("ev") == "done":
                    point = rec["point"]
                    point["cycles"] += 1   # an old-evaluator count
                    point["stats"] = {"kernel": "compiled",
                                      "cycles": point["cycles"]}
                    recorded[point["index"]] = point["cycles"]
                lines.append(json.dumps(rec, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        with open(path, "w") as fh:
            fh.writelines(lines)
        assert recorded

        report = resume(exc.sweep_id, sweeps_dir=sweeps, workers=1)
        assert report.counts["ok"] == 4
        assert report.counts["resumed"] == len(recorded)
        for index, cycles in recorded.items():
            point = report.point(index)
            assert point.source == "journal"
            assert point.cycles == cycles
            assert "stats" not in point.to_json()

    def test_resume_of_complete_sweep_is_pure_restore(self, tmp_path):
        sweeps = str(tmp_path / "sweeps")
        first = explore("saxpy", GridSpace({"banks": [1, 2]}),
                        pipeline=TEMPLATE, workers=1, cache=None,
                        journal=sweeps)
        again = resume("last", sweeps_dir=sweeps, workers=1)
        assert again.counts["resumed"] == 2
        assert again.counts["ok"] == 2
        assert all(p.source == "journal" for p in again.points)
        assert again.pareto == first.pareto


def _shard(sweeps_dir: str, sweep_id: str) -> None:
    explore("saxpy", GridSpace({"banks": [1, 2, 4, 8]}),
            pipeline=TEMPLATE, workers=1, cache=None,
            journal=sweeps_dir, sweep_id=sweep_id,
            retry=RetryPolicy(base_delay=0.01), lease_ttl=60.0)


class TestSharding:
    def test_two_processes_evaluate_each_point_exactly_once(
            self, tmp_path):
        sweeps = str(tmp_path / "sweeps")
        sweep_id = "20260101T000000-00042-shared"
        procs = [multiprocessing.Process(target=_shard,
                                         args=(sweeps, sweep_id))
                 for _ in range(2)]
        for p in procs:
            p.start()
            time.sleep(0.05)  # stagger: second process attaches
        for p in procs:
            p.join(timeout=180)
            assert p.exitcode == 0
        journal = SweepJournal(sweeps, sweep_id)
        state = journal.state()
        assert state.complete
        assert state.counts["done"] == 4
        # exactly-once: one done event per point across both processes
        done_by_key = {}
        for rec in journal.records()[0]:
            if rec["ev"] == "done":
                done_by_key[rec["key"]] = \
                    done_by_key.get(rec["key"], 0) + 1
        assert done_by_key and all(n == 1
                                   for n in done_by_key.values())
