"""Scheduler semantics: dedup, coalescing, retry classification,
supervision, and the per-request ledger.

These tests drive the :class:`~repro.serve.scheduler.Scheduler`
directly inside one event loop.  Determinism trick: after
``scheduler.start()`` the hand-off task exists but has not yet run,
and ``submit()`` never yields to it, so every request submitted
before the first ``await`` on a job is *guaranteed* to be queued
together — dedup and coalescing decisions become exact counter
assertions, not races.

Worker-death chaos uses the shared ``REPRO_CHAOS`` env hook (set
before the pool spawns, inherited by its processes), labelled by
``describe()``, exactly as the DSE supervision tests label points.
"""

import asyncio
import json
import threading

import pytest

from repro.api import execute
from repro.api.requests import EVAL_SCHEMA, EvaluationRequest
from repro.dse.engine import RetryPolicy
from repro.errors import ReproError
from repro.serve import COUNTER_KEYS, Scheduler, response_payload_bytes
from repro.serve import worker as worker_mod

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.02, jitter=0.0)


def run(coro, timeout=180):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _finish(sched, jobs):
    for job in jobs:
        await job.done.wait()
    await sched.close()


class TestDedup:
    def test_one_execution_n_subscribers(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread")
            await sched.start()
            req = EvaluationRequest(workload="fib")
            jobs = [await sched.submit(req) for _ in range(5)]
            assert all(j is jobs[0] for j in jobs), \
                "identical requests must share one Job"
            assert jobs[0].subscribers == 5
            assert sched.counters["requests"] == 5
            assert sched.counters["dedup_hits"] == 4
            await _finish(sched, jobs[:1])
            assert sched.counters["executions"] == 1
            assert sched.counters["ok"] == 1
            return jobs[0]

        job = run(go())
        # The sealed bytes every subscriber streams: one canonical
        # result event carrying the response + its payload sha.
        event = json.loads(job.payload_bytes)
        assert event["event"] == "result"
        assert event["response"]["status"] == "ok"
        assert len(event["payload_sha"]) == 64

    def test_distinct_requests_do_not_dedup(self):
        async def go():
            sched = Scheduler(workers=2, executor="thread")
            await sched.start()
            a = await sched.submit(EvaluationRequest(workload="fib"))
            b = await sched.submit(EvaluationRequest(workload="covar"))
            assert a is not b
            assert sched.counters["dedup_hits"] == 0
            await _finish(sched, [a, b])
            assert sched.counters["executions"] == 2

        run(go())


class TestCoalescing:
    ARGS = ((4, 1.0), (8, 2.0), (16, 0.5))

    def _requests(self):
        return [EvaluationRequest(source=SRC, args=args)
                for args in self.ARGS]

    def test_lane_group_is_bit_identical_to_sequential(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              max_batch=8)
            await sched.start()
            jobs = [await sched.submit(r) for r in self._requests()]
            await _finish(sched, jobs)
            assert sched.counters["executions"] == 1
            assert sched.counters["batches"] == 1
            assert sched.counters["coalesced_lanes"] == 2
            assert sched.counters["ok"] == 3
            return [j.response_doc for j in jobs]

        docs = run(go())
        for req, doc in zip(self._requests(), docs):
            assert doc["meta"]["coalesced"] == 3
            direct = execute(req)
            assert direct.ok
            assert response_payload_bytes(doc) == \
                response_payload_bytes(direct.to_json()), \
                f"coalesced lane for args={req.args} diverged"

    def test_max_batch_caps_the_group(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              max_batch=2)
            await sched.start()
            jobs = [await sched.submit(r) for r in self._requests()]
            await _finish(sched, jobs)
            assert sched.counters["executions"] == 2
            assert sched.counters["batches"] == 1
            assert sched.counters["coalesced_lanes"] == 1

        run(go())

    def test_different_groups_never_coalesce(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              max_batch=8)
            await sched.start()
            a = await sched.submit(
                EvaluationRequest(source=SRC, args=(4, 1.0)))
            b = await sched.submit(
                EvaluationRequest(source=SRC, args=(8, 1.0),
                                  passes="localize"))
            await _finish(sched, [a, b])
            assert sched.counters["batches"] == 0
            assert sched.counters["executions"] == 2

        run(go())

    def test_requests_differing_in_name_keep_their_names(self):
        named = [EvaluationRequest(source=SRC, args=args, name=f"run{i}")
                 for i, args in enumerate(self.ARGS)]

        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              max_batch=8)
            await sched.start()
            jobs = [await sched.submit(r) for r in named]
            await _finish(sched, jobs)
            return [j.response_doc for j in jobs]

        docs = run(go())
        for req, doc in zip(named, docs):
            assert response_payload_bytes(doc) == \
                response_payload_bytes(execute(req).to_json()), \
                f"{req.name} answered as {doc['evaluation']['name']}"

    def test_non_coalescible_request_rides_alone(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              max_batch=8)
            await sched.start()
            # seeded source request: never coalesced
            a = await sched.submit(
                EvaluationRequest(source=SRC, args=(4, 1.0), seed=3))
            b = await sched.submit(
                EvaluationRequest(source=SRC, args=(8, 1.0), seed=3))
            assert not a.coalescible
            await _finish(sched, [a, b])
            assert sched.counters["batches"] == 0
            assert sched.counters["executions"] == 2

        run(go())


class TestRetryClassification:
    def test_deterministic_failure_never_retried(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              retry=FAST_RETRY)
            await sched.start()
            job = await sched.submit(
                EvaluationRequest(workload="fib",
                                  passes="no_such_pass"))
            await _finish(sched, [job])
            assert sched.counters["errors"] == 1
            assert sched.counters["retries"] == 0
            return job.response_doc

        doc = run(go())
        assert doc["status"] == "error"
        assert doc["error"]["family"] == "deterministic"
        assert doc["error"]["exit_code"] != 0

    def test_transient_failure_retried_to_success(self, monkeypatch):
        calls = {"n": 0}
        real = worker_mod.run_payload

        def flaky(doc):
            calls["n"] += 1
            if calls["n"] == 1:
                return {"schema": EVAL_SCHEMA, "status": "error",
                        "request_key": "", "evaluation": None,
                        "lanes": None,
                        "error": {"error": "OSError",
                                  "message": "synthetic flake",
                                  "exit_code": 1,
                                  "family": "transient"},
                        "meta": {}}
            return real(doc)

        monkeypatch.setattr(worker_mod, "run_payload", flaky)

        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              retry=FAST_RETRY)
            await sched.start()
            job = await sched.submit(EvaluationRequest(workload="fib"))
            await _finish(sched, [job])
            assert sched.counters["retries"] == 1
            assert sched.counters["ok"] == 1
            assert job.attempts == 2
            assert job.response_doc["status"] == "ok"

        run(go())

    def test_transient_failure_exhausts_attempts(self, monkeypatch):
        def always_flaky(_doc):
            return {"schema": EVAL_SCHEMA, "status": "error",
                    "request_key": "", "evaluation": None,
                    "lanes": None,
                    "error": {"error": "OSError",
                              "message": "synthetic flake",
                              "exit_code": 1, "family": "transient"},
                    "meta": {}}

        monkeypatch.setattr(worker_mod, "run_payload", always_flaky)

        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              retry=FAST_RETRY)
            await sched.start()
            job = await sched.submit(EvaluationRequest(workload="fib"))
            await _finish(sched, [job])
            assert job.attempts == FAST_RETRY.max_attempts
            assert sched.counters["retries"] == \
                FAST_RETRY.max_attempts - 1
            assert job.response_doc["status"] == "error"
            assert job.response_doc["error"]["family"] == "transient"

        run(go())


class TestSupervisorTimeout:
    def test_hung_request_times_out_then_succeeds(self, monkeypatch):
        calls = {"n": 0}
        release = threading.Event()
        returned = threading.Event()
        real = worker_mod.run_payload

        def hang_once(doc):
            calls["n"] += 1
            if calls["n"] > 1:
                return real(doc)
            # The hung call never runs the real payload: the scheduler
            # abandons its future, and a payload finishing later would
            # run inside the test process under whatever environment
            # (e.g. a chaos hook) a later test has set.
            try:
                release.wait(60)
                return {"schema": EVAL_SCHEMA, "status": "error",
                        "evaluation": None, "lanes": None,
                        "error": {"error": "Abandoned",
                                  "family": "deterministic"},
                        "meta": {}}
            finally:
                returned.set()

        monkeypatch.setattr(worker_mod, "run_payload", hang_once)

        # Two pool threads: the abandoned hung future keeps one busy,
        # the retry must land on the other.  The hang lasts until
        # released, so the deadline can leave the retried evaluation
        # (~0.4 s for fib) a wide margin on a loaded host.
        async def go():
            sched = Scheduler(workers=2, executor="thread",
                              retry=FAST_RETRY, job_timeout=3.0)
            await sched.start()
            job = await sched.submit(EvaluationRequest(workload="fib"))
            await _finish(sched, [job])
            assert sched.counters["timeouts"] >= 1
            assert sched.counters["retries"] >= 1
            assert job.response_doc["status"] == "ok", \
                job.response_doc.get("error")

        try:
            run(go())
        finally:
            release.set()
        assert returned.wait(10), "the abandoned call never returned"


class TestWorkerDeath:
    """SIGKILL chaos against a real process pool (slow: pool spawn)."""

    #: The chaos hook matches ``describe()`` exactly.  Only this class
    #: sends a request that describes as "fib passes=op_fusion", so
    #: the hook can never fire on another test's call.
    KILLABLE = EvaluationRequest(workload="fib", passes="op_fusion")
    LABEL = KILLABLE.describe()

    def _chaos(self, monkeypatch, **kill):
        monkeypatch.setenv("REPRO_CHAOS", json.dumps({"kill": kill}))

    def test_death_respawns_pool_and_retries(self, tmp_path,
                                             monkeypatch):
        self._chaos(monkeypatch, label=self.LABEL,
                    flag=str(tmp_path / "spent"))

        async def go():
            sched = Scheduler(workers=1, executor="process",
                              retry=FAST_RETRY)
            await sched.start()
            job = await sched.submit(self.KILLABLE)
            await _finish(sched, [job])
            assert sched.counters["worker_deaths"] == 1
            assert sched.counters["retries"] >= 1
            assert job.deaths == 1
            assert job.response_doc["status"] == "ok"

        run(go())

    def test_repeat_killer_is_quarantined(self, monkeypatch):
        # no flag: kills every time
        self._chaos(monkeypatch, label=self.LABEL)

        async def go():
            sched = Scheduler(workers=1, executor="process",
                              retry=FAST_RETRY)
            await sched.start()
            poison = await sched.submit(self.KILLABLE)
            innocent = await sched.submit(
                EvaluationRequest(workload="covar"))
            await _finish(sched, [poison, innocent])
            assert sched.counters["quarantined"] == 1
            assert poison.deaths >= 2
            assert poison.response_doc["status"] == "error"
            assert poison.response_doc["error"]["error"] == \
                "PoisonPointError"
            assert poison.response_doc["error"]["family"] == "poison"
            # the daemon survives: the innocent request still lands
            assert innocent.response_doc["status"] == "ok"

        run(go())


class TestConcurrentSupervision:
    """A faulty request beside innocent ones on a two-worker process
    pool: the fault is charged to the faulty request alone."""

    INNOCENTS = [EvaluationRequest(workload=w) for w in
                 ("spmv", "softm16", "dense8", "relu_t", "softm8",
                  "covar")]

    def _chaos(self, monkeypatch, **spec):
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(spec))

    def test_killer_is_quarantined_innocents_are_not(self, monkeypatch):
        killer = TestWorkerDeath.KILLABLE
        self._chaos(monkeypatch, kill={"label": killer.describe()})

        async def go():
            sched = Scheduler(workers=2, executor="process",
                              retry=FAST_RETRY)
            await sched.start()
            poison = await sched.submit(killer)
            innocents = [await sched.submit(r)
                         for r in self.INNOCENTS[:4]]
            await _finish(sched, [poison] + innocents)
            # one death per kill: the first kill took an innocent
            # down with it, the isolated re-run named the killer
            assert sched.counters["worker_deaths"] == 2
            assert sched.counters["quarantined"] == 1
            assert poison.response_doc["error"]["error"] == \
                "PoisonPointError"
            for job in innocents:
                assert job.response_doc["status"] == "ok", \
                    job.response_doc["error"]

        run(go())

    def test_hung_request_times_out_innocents_are_not(self,
                                                      monkeypatch):
        hung = EvaluationRequest(workload="fib", passes="localize")
        self._chaos(monkeypatch, hang={"label": hung.describe(),
                                       "seconds": 60})

        async def go():
            sched = Scheduler(
                workers=2, executor="process", job_timeout=3.0,
                retry=RetryPolicy(max_attempts=2, base_delay=0.02,
                                  jitter=0.0))
            await sched.start()
            stuck = await sched.submit(hung)
            innocents = [await sched.submit(r) for r in self.INNOCENTS]
            await _finish(sched, [stuck] + innocents)
            for job in innocents:
                assert job.response_doc["status"] == "ok", \
                    job.response_doc["error"]
            assert sched.counters["quarantined"] == 0
            assert sched.counters["worker_deaths"] == 0
            assert stuck.response_doc["error"]["error"] == \
                "SupervisorTimeout"

        run(go())


class TestLifecycle:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ReproError, match="unknown executor"):
            Scheduler(executor="quantum")

    def test_close_fails_queued_requests_loudly(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread")
            await sched.start()
            job = await sched.submit(EvaluationRequest(workload="fib"))
            await sched.close()   # before the worker ever ran
            assert job.done.is_set()
            return job.response_doc

        doc = run(go())
        assert doc["status"] == "error"
        assert "shut down" in doc["error"]["message"]
        assert doc["error"]["family"] == "transient"

    def test_submit_after_close_rejected(self):
        async def go():
            sched = Scheduler(workers=1, executor="thread")
            await sched.start()
            await sched.close()
            with pytest.raises(ReproError, match="shutting down"):
                await sched.submit(EvaluationRequest(workload="fib"))

        run(go())

    def test_snapshot_shape(self):
        async def go():
            sched = Scheduler(workers=2, executor="thread",
                              max_batch=4)
            await sched.start()
            snap = sched.snapshot()
            await sched.close()
            return snap

        snap = run(go())
        assert set(snap["counters"]) == set(COUNTER_KEYS)
        assert snap["workers"] == 2
        assert snap["executor"] == "thread"
        assert snap["max_batch"] == 4
        assert snap["queue_depth"] == 0


class TestLedger:
    def test_one_record_per_finalized_request(self, tmp_path):
        from repro.telemetry import RunLedger

        async def go():
            sched = Scheduler(workers=1, executor="thread",
                              ledger_root=str(tmp_path))
            await sched.start()
            jobs = [await sched.submit(EvaluationRequest(
                workload="fib")) for _ in range(3)]
            await _finish(sched, jobs)
            return jobs[0]

        job = run(go())
        records, skipped = RunLedger(str(tmp_path)).records()
        assert skipped == 0
        # 3 requests deduped into ONE computation -> one record,
        # carrying all three subscribers.
        assert len(records) == 1
        rec = records[0]
        assert rec["command"] == "serve"
        assert rec["status"] == "ok"
        assert rec["annotations"]["request_key"] == job.key
        assert rec["annotations"]["subscribers"] == 3
