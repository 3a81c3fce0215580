"""The serve scheduler: request queue, dedup, coalescing, hand-off.

One :class:`Scheduler` per daemon.  Connections :meth:`submit`
requests and get back a :class:`Job`; one event-loop task hands the
queue to the supervised worker pool:

* **Dedup** — a request whose ``canonical_key`` matches a queued or
  running job attaches to that job instead of enqueuing a second
  execution: one computation, N subscribers, all of whom receive the
  *same serialized payload bytes* (the response is serialized exactly
  once, at finalization).
* **Coalescing** — when the pool has a free slot, the oldest queued
  job is handed to it together with every queued coalescible request
  of the same ``group_key`` (same design/variant/passes/sim/check/
  name, differing only in root arguments), up to ``max_batch``
  lanes: one ``simulate_batch`` lane-group, one front end and one
  compiled circuit for the whole group.
* **Supervision** — the pool is :class:`repro.supervise.SupervisedPool`,
  the one sweeps run on, so a request gets exactly a design point's
  treatment: transient failures retry with backoff, a pool break is
  one worker death whose in-flight requests re-run alone as suspects,
  a request in flight for two deaths is quarantined with a
  ``PoisonPointError`` document, and a request past ``job_timeout``
  is charged a ``SupervisorTimeout`` while the requests its pool kill
  interrupted re-run uncharged.

The hand-off task wakes on submission and on completion, and
otherwise only when the pool's next retry or deadline is due.
Scheduling counters are plain dict state (always on — ``report``
must work without telemetry); when telemetry is enabled they are
mirrored into the metrics registry and every finalized request also
appends one ledger record.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from .. import telemetry
from ..errors import ReproError, error_document
from ..supervise import RetryPolicy, SupervisedPool, Task, default_workers
from . import worker as _worker
from .protocol import event_bytes

EXECUTORS = ("process", "thread")

#: Scheduler counters, all always-on.  ``dedup_hits`` counts requests
#: answered by an already in-flight computation; ``executions`` counts
#: lane-groups dispatched to the pool; ``coalesced_lanes`` counts
#: requests that rode a shared lane-group beyond its first.
COUNTER_KEYS = (
    "requests", "dedup_hits", "executions", "batches",
    "coalesced_lanes", "ok", "errors", "retries", "worker_deaths",
    "timeouts", "quarantined", "lru_hits",
)


class Job(Task):
    """One deduplicated unit of queued/running/finished work; its
    pool ``payload`` is the request wire document."""

    __slots__ = ("request", "key", "group", "verb", "coalescible",
                 "state", "done", "response_doc", "payload_bytes",
                 "enqueued", "started", "finished", "subscribers")

    def __init__(self, request, doc: Dict):
        super().__init__(doc)
        self.request = request
        self.key = request.canonical_key()
        self.group = request.group_key()
        self.verb = request.kind
        self.coalescible = request.coalescible
        self.state = "queued"               # queued | running | done
        self.done = asyncio.Event()
        self.response_doc: Optional[Dict] = None
        self.payload_bytes: Optional[bytes] = None
        self.enqueued = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.subscribers = 1

    @property
    def wait_s(self) -> float:
        return (self.started or time.monotonic()) - self.enqueued


class Scheduler:
    """Owns the queue, the dedup table, and the supervised pool."""

    def __init__(self, *, workers: Optional[int] = None,
                 executor: str = "process", max_batch: int = 8,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout: Optional[float] = None,
                 ledger_root: Optional[str] = None):
        if executor not in EXECUTORS:
            raise ReproError(
                f"unknown executor {executor!r}; "
                f"known: {', '.join(EXECUTORS)}")
        self.workers = workers or default_workers()
        self.executor_kind = executor
        self.max_batch = max(1, max_batch)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_KEYS, 0)
        self.started_at = time.time()
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[str, Job] = {}
        self._pool = SupervisedPool(
            _worker.run_docs, client=self, workers=self.workers,
            executor=executor, retry=retry, timeout=job_timeout,
            counters=self.counters, metric_prefix="serve",
            notify=self._completed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._driver: Optional[asyncio.Task] = None
        self._closing = False
        self._ledger = None
        if ledger_root is not None:
            from ..telemetry.ledger import RunLedger
            self._ledger = RunLedger(ledger_root)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._driver = asyncio.create_task(self._drive(),
                                           name="serve-pool")

    async def close(self) -> None:
        self._closing = True
        if self._driver is not None:
            self._driver.cancel()
            try:
                await self._driver
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._driver = None
        self._pool.close()
        # Fail anything still queued so no subscriber hangs.
        shutdown_doc = error_document(
            ReproError("server shut down before this request ran"))
        shutdown_doc["family"] = "transient"
        for job in list(self._inflight.values()):
            if not job.done.is_set():
                self._finalize_error(job, shutdown_doc)

    # -- submission --------------------------------------------------------
    async def submit(self, request, doc: Optional[Dict] = None) -> Job:
        """Enqueue (or attach to) the job for ``request``; the caller
        awaits ``job.done`` and streams ``job.payload_bytes``."""
        if self._closing:
            raise ReproError("server is shutting down")
        self.counters["requests"] += 1
        key = request.canonical_key()
        job = self._inflight.get(key)
        if job is not None:
            job.subscribers += 1
            self.counters["dedup_hits"] += 1
            self._mirror("serve.dedup.hits")
            return job
        job = Job(request, doc if doc is not None
                  else request.to_json())
        self._inflight[key] = job
        self._queue.append(job)
        self._gauge_depth()
        self._wake.set()
        return job

    def queue_depth(self) -> int:
        return len(self._queue)

    def snapshot(self) -> Dict:
        """The ``report`` verb's scheduler section."""
        return {
            "counters": dict(self.counters),
            "queue_depth": len(self._queue),
            "inflight": sum(1 for j in self._inflight.values()
                            if j.state != "done"),
            "workers": self.workers,
            "executor": self.executor_kind,
            "max_batch": self.max_batch,
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    # -- the hand-off ------------------------------------------------------
    async def _drive(self) -> None:
        """Hand lane-groups to free pool slots, dispatch, and reap."""
        while True:
            self._wake.clear()
            while self._queue and self._pool.free():
                self._pool.put(self._coalesce(self._queue.popleft()))
            self._gauge_depth()
            self._pool.pump()
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       self._pool.next_event_s())
            except asyncio.TimeoutError:
                pass
            self._pool.reap()

    def _completed(self, _future) -> None:
        """Pool done-callback (any thread): wake the hand-off task."""
        try:
            self._loop.call_soon_threadsafe(self._wake.set)
        except RuntimeError:
            pass  # loop closed: an abandoned call finished after close

    def _coalesce(self, job: Job) -> List[Job]:
        """Drain queued jobs compatible with ``job`` into one
        lane-group."""
        group = [job]
        if not job.coalescible or self.max_batch < 2:
            return group
        keep: Deque[Job] = deque()
        while self._queue and len(group) < self.max_batch:
            other = self._queue.popleft()
            if other.coalescible and other.group == job.group:
                group.append(other)
            else:
                keep.append(other)
        self._queue.extendleft(reversed(keep))
        return group

    # -- pool glue (see SupervisedPool) ------------------------------------
    def admit(self, group: List[Job]) -> List[Job]:
        for job in group:
            job.state = "running"
            job.started = time.monotonic()
        self.counters["executions"] += 1
        if len(group) > 1:
            self.counters["batches"] += 1
            self.counters["coalesced_lanes"] += len(group) - 1
            self._mirror("serve.batch.lanes", len(group) - 1)
            if telemetry.enabled():
                telemetry.metrics().histogram(
                    "serve.batch.size",
                    buckets=(1, 2, 4, 8, 16)).observe(len(group))
        return group

    def settle(self, job: Job, out: Dict) -> None:
        if out.get("meta", {}).get("lru") == "hit":
            self.counters["lru_hits"] += 1
            self._mirror("serve.lru.hits")
        self._finalize(job, out)

    def fail(self, job: Job, doc: Dict) -> None:
        self._finalize_error(job, doc)

    def retry(self, job: Job, _doc: Dict) -> None:
        job.state = "queued"

    # -- finalization ------------------------------------------------------
    def _finalize(self, job: Job, out: Dict) -> None:
        job.response_doc = out
        ok = out.get("status") == "ok"
        self.counters["ok" if ok else "errors"] += 1
        self._mirror("serve.ok" if ok else "serve.errors")
        self._seal(job)

    def _finalize_error(self, job: Job, error_doc: Dict) -> None:
        from ..api.requests import EVAL_SCHEMA
        job.response_doc = {
            "schema": EVAL_SCHEMA, "status": "error",
            "request_key": job.key, "evaluation": None, "lanes": None,
            "error": dict(error_doc),
            "meta": {"wall_s": round(time.monotonic()
                                     - job.enqueued, 4)}}
        self.counters["errors"] += 1
        self._mirror("serve.errors")
        self._seal(job)

    def _seal(self, job: Job) -> None:
        """Serialize ONCE; every subscriber streams the same bytes."""
        job.state = "done"
        job.finished = time.monotonic()
        doc = dict(job.response_doc)
        payload = {k: v for k, v in doc.items() if k != "meta"}
        job.payload_bytes = event_bytes(
            {"event": "result", "response": doc,
             "payload_sha": _sha(payload)})
        self._inflight.pop(job.key, None)
        self._record(job)
        job.done.set()

    # -- telemetry glue ----------------------------------------------------
    def _mirror(self, name: str, n: int = 1) -> None:
        if telemetry.enabled():
            telemetry.metrics().counter(name).inc(n)

    def _gauge_depth(self) -> None:
        if telemetry.enabled():
            telemetry.metrics().gauge(
                "serve.queue.depth").set(len(self._queue))

    def _record(self, job: Job) -> None:
        """One ledger record + one span per finalized request."""
        wall = (job.finished or time.monotonic()) - job.enqueued
        if telemetry.enabled():
            with telemetry.tracer().span(
                    "serve.request", verb=job.verb,
                    key=job.key[:12]) as sp:
                sp.set(attempts=job.attempts,
                       subscribers=job.subscribers,
                       wait_ms=round(job.wait_s * 1e3, 3))
        if self._ledger is None:
            return
        from ..telemetry.ledger import build_record, new_run_id
        out = job.response_doc or {}
        error = out.get("error")
        try:
            self._ledger.append(build_record(
                run_id=new_run_id(), command="serve",
                argv=[job.verb, job.request.describe()],
                status="ok" if out.get("status") == "ok" else "error",
                exit_code=0 if out.get("status") == "ok"
                else int((error or {}).get("exit_code", 1)),
                wall_s=wall, started=time.time() - wall,
                annotations={"request_key": job.key,
                             "attempts": job.attempts,
                             "subscribers": job.subscribers},
                error=error))
        except OSError:
            pass  # ledger I/O must never fail a request


def _sha(doc: Dict) -> str:
    import hashlib
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
