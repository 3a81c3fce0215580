"""One supervised worker pool for design-space sweeps and the daemon.

Both long-running callers — :func:`repro.dse.explore` and the
``repro serve`` scheduler — hand *chunks* of :class:`Task` objects to
a :class:`SupervisedPool`, which runs each chunk through one call of
a picklable worker function and applies one policy to whatever goes
wrong:

* a task whose worker returns a *transient* error document
  (:func:`repro.errors.error_family`: worker deaths, watchdogs,
  ``OSError``-shaped trouble) re-runs alone after a
  :class:`RetryPolicy` backoff; *deterministic* errors never retry;
* a dying worker breaks a process pool.  That is **one** worker
  death however many chunks it took down; the pool is respawned and
  every task that was in flight becomes a *suspect*.  Suspects re-run
  one at a time, alone in the pool, so the next death names its
  killer instead of an innocent chunk-mate;
* a task in flight for two deaths is quarantined with a
  :class:`~repro.errors.PoisonPointError` document;
* a chunk running longer than ``timeout`` times its task count is
  charged a ``SupervisorTimeout`` (transient, so it retries).  A
  process pool is killed to stop it, and the other chunks in flight
  re-run at their current attempt with nothing charged; a thread
  pool cannot be killed, so it is retired and they finish in it.

The pool owns no thread.  :meth:`SupervisedPool.pump` dispatches and
:meth:`SupervisedPool.reap` collects; sweeps drive both through the
blocking :meth:`SupervisedPool.run`, and the daemon drives them from
its event loop, woken by the pool's completion callback.  What each
caller keeps is glue: journal leases and checkpoints for sweeps;
dedup, coalescing and response finalization for the daemon.

Workers call :func:`maybe_chaos` with each task's label before
running it — the one fault-injection hook the supervision tests and
CI chaos jobs drive.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from . import telemetry
from .errors import (PoisonPointError, error_document, error_family,
                     unexpected_error_document)

#: Test/CI fault injection.  ``{"kill": {"label": L, "flag": PATH}}``
#: makes a worker about to run the task labelled ``L`` SIGKILL itself;
#: ``{"hang": {"label": L, "seconds": S, "flag": PATH}}`` makes it
#: sleep ``S`` seconds first.  With ``flag`` a fault fires once (the
#: flag file marks it spent, so the retry survives); without, on every
#: attempt.  Sweeps label tasks by point index, the daemon by
#: :meth:`repro.api.EvaluationRequest.describe`.
CHAOS_ENV = "REPRO_CHAOS"


#: Longest one :meth:`SupervisedPool.run` round blocks, so its
#: ``tick()`` (a sweep's signal checkpoint and foreign-lease poll)
#: runs promptly.
TICK_S = 0.25


def default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


@dataclass
class RetryPolicy:
    """How the pool retries transient task failures.

    ``max_attempts`` bounds total tries per task (1 = never retry);
    delays grow exponentially from ``base_delay`` up to ``max_delay``,
    each multiplied by a uniform jitter in ``[1 - jitter, 1 + jitter]``
    so respawned workers don't stampede."""

    max_attempts: int = 3
    base_delay: float = 0.25
    max_delay: float = 5.0
    jitter: float = 0.5

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts are
        1-based; called with the attempt that just failed)."""
        base = min(self.max_delay,
                   self.base_delay * (2.0 ** max(0, attempt - 1)))
        # Timing-only jitter: results are unaffected, so the shared
        # deterministic RNG (repro.util.rng) is deliberately not used.
        return base * random.uniform(1.0 - self.jitter,
                                     1.0 + self.jitter)


def _spend(flag: Optional[str]) -> bool:
    """True if a fault should fire (no flag, or flag not yet spent);
    creating the flag marks it spent for later attempts."""
    if not flag:
        return True
    if os.path.exists(flag):
        return False
    with open(flag, "w"):
        pass
    return True


def maybe_chaos(label) -> None:
    """Worker-side :data:`CHAOS_ENV` hook for the task ``label``."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    try:
        doc = json.loads(spec)
    except ValueError:
        return
    hang = doc.get("hang") or {}
    if hang.get("label") == label and _spend(hang.get("flag")):
        time.sleep(float(hang.get("seconds", 3600)))
    kill = doc.get("kill") or {}
    if kill.get("label") == label and _spend(kill.get("flag")):
        os.kill(os.getpid(), signal.SIGKILL)


class Task:
    """One unit of supervised work.  ``payload`` is what crosses to
    the worker.  The pool keeps ``attempts`` (1-based number of the
    current or last dispatch) and ``deaths`` (pool breaks the task was
    in flight for)."""

    __slots__ = ("payload", "attempts", "deaths")

    def __init__(self, payload):
        self.payload = payload
        self.attempts = 0
        self.deaths = 0


def _suspect(chunk: List[Task]) -> bool:
    return any(task.deaths for task in chunk)


class _InlineExecutor:
    """Runs each submission to completion in the calling thread."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - reaped like a pool's
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


class SupervisedPool:
    """A worker pool plus the supervision policy in the module
    docstring.

    ``executor`` is ``"process"``, ``"thread"``, or ``"inline"`` (the
    calling thread).  ``fn(payloads) -> outs`` runs one chunk in a
    worker and returns one result document per payload; an ``out``
    whose ``"error"`` is set is a failure, classified by its
    ``family``.  ``client`` is the caller's glue, called with the
    pool's tasks:

    * ``admit(tasks) -> tasks`` before every dispatch, returning the
      tasks to run now (a sweep drops points another process leases);
    * ``settle(task, out)`` with a worker's final answer;
    * ``fail(task, doc)`` with the pool's own final error document
      (timeout, worker death, quarantine);
    * ``retry(task, doc)`` when a transient failure will re-run.

    At most ``depth`` chunks are in flight.  The pool increments
    ``retries``, ``worker_deaths``, ``timeouts`` and ``quarantined``
    in ``counters``, mirrored to telemetry as
    ``<metric_prefix>.<name>``.  ``notify(future)``, if given, is
    added as a done-callback to every dispatched future.
    """

    def __init__(self, fn: Callable[[List], List[Dict]], *, client,
                 workers: int, executor: str,
                 depth: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 counters: Dict[str, int], metric_prefix: str,
                 notify: Optional[Callable[[Future], None]] = None):
        self.fn = fn
        self.client = client
        self.workers = max(1, workers)
        self.executor = executor
        self.depth = depth or self.workers
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self.counters = counters
        self.metric_prefix = metric_prefix
        self.notify = notify
        # A chunk is a list of tasks run by one call of ``fn``.
        self.queue: Deque[List[Task]] = deque()
        self.suspects: Deque[List[Task]] = deque()
        self.delayed: List[tuple] = []   # (ready_monotonic, chunk)
        self.inflight: Dict[Future, tuple] = {}  # -> (chunk, t0)
        self._pool = None

    # -- caller side -------------------------------------------------------
    def put(self, tasks: Sequence[Task]) -> None:
        """Enqueue a fresh chunk (dispatched by the next :meth:`pump`)."""
        self.queue.append(list(tasks))

    def free(self) -> int:
        """Chunks :meth:`put` could add now without waiting: none
        while a suspect waits to run alone."""
        if self.suspects:
            return 0
        return max(0, self.depth - len(self.inflight) - len(self.queue))

    def idle(self) -> bool:
        return not (self.queue or self.suspects or self.delayed
                    or self.inflight)

    def next_event_s(self) -> Optional[float]:
        """Seconds until the next retry is due or deadline passes
        (None when neither is pending)."""
        times = [ready for ready, _ in self.delayed]
        if self.timeout is not None:
            times += [t0 + self.timeout * len(chunk)
                      for chunk, t0 in self.inflight.values()]
        if not times:
            return None
        return max(0.01, min(times) - time.monotonic())

    def run(self, tick: Callable[[], bool]) -> None:
        """Blocking driver: pump and reap in this thread until the
        pool is idle and ``tick()`` — called every round, and free to
        :meth:`put` more work or raise — returns False.  No round
        blocks longer than :data:`TICK_S`."""
        try:
            while True:
                more = tick()
                self.pump()
                if self.idle() and not more:
                    return
                timeout = min(TICK_S, self.next_event_s() or TICK_S)
                if self.inflight:
                    wait(set(self.inflight), timeout=timeout,
                         return_when=FIRST_COMPLETED)
                else:
                    time.sleep(timeout)
                self.reap()
        finally:
            self.close()

    def close(self) -> None:
        """Stop the workers; tasks still in flight are abandoned."""
        self.inflight.clear()
        self._retire()

    # -- dispatch ----------------------------------------------------------
    def pump(self) -> None:
        """Queue due retries and dispatch ready chunks: while suspects
        wait, exactly one runs, alone in the pool."""
        now = time.monotonic()
        still = []
        for ready, chunk in self.delayed:
            if ready <= now:
                self._enqueue(chunk)
            else:
                still.append((ready, chunk))
        self.delayed = still
        while True:
            if self.suspects:
                if self.inflight:
                    return
                chunk = self.suspects.popleft()
            elif self.queue and len(self.inflight) < self.depth:
                chunk = self.queue.popleft()
            else:
                return
            chunk = self.client.admit(chunk)
            if not chunk:
                continue
            if not self._submit(chunk) or _suspect(chunk):
                return

    def _enqueue(self, chunk: List[Task], first: bool = False) -> None:
        line = self.suspects if _suspect(chunk) else self.queue
        if first:
            line.appendleft(chunk)
        else:
            line.append(chunk)

    def _submit(self, chunk: List[Task]) -> bool:
        if self._pool is None:
            self._pool = self._new_pool()
        try:
            future = self._pool.submit(
                self.fn, [task.payload for task in chunk])
        except BrokenProcessPool:
            # Not in flight, so not charged: it re-runs after the
            # break is handled.
            self._enqueue(chunk, first=True)
            self._broken([])
            return False
        for task in chunk:
            task.attempts += 1
        self.inflight[future] = (chunk, time.monotonic())
        if self.notify is not None:
            future.add_done_callback(self.notify)
        return True

    def _new_pool(self):
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        if self.executor == "thread":
            return ThreadPoolExecutor(max_workers=self.workers,
                                      thread_name_prefix="repro-pool")
        return _InlineExecutor()

    def _retire(self, kill: bool = True) -> None:
        """Drop the executor; the next dispatch makes a new one.
        ``kill`` terminates process workers (``shutdown`` alone would
        wait for running tasks) and cancels calls not yet started;
        without it, running calls finish in the retired executor."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill and self.executor == "process":
            for proc in list((getattr(pool, "_processes", None)
                              or {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=kill)
        except Exception:  # noqa: BLE001 - already broken
            pass

    # -- collection --------------------------------------------------------
    def reap(self) -> None:
        """Settle finished chunks, then handle a pool break or any
        overdue chunk."""
        dead: List[List[Task]] = []
        for future in [f for f in self.inflight if f.done()]:
            chunk, _t0 = self.inflight.pop(future)
            exc = future.exception()
            if exc is None:
                for task, out in zip(chunk, future.result()):
                    self._settle(task, out)
            elif isinstance(exc, BrokenProcessPool):
                dead.append(chunk)
            else:
                doc = unexpected_error_document(exc)
                for task in chunk:
                    self._fail_or_retry(task, dict(doc))
        if dead:
            self._broken(dead)
            return
        if self.timeout is None or not self.inflight:
            return
        now = time.monotonic()
        overdue = [future for future, (chunk, t0) in self.inflight.items()
                   if now - t0 > self.timeout * len(chunk)]
        if not overdue:
            return
        for future in overdue:
            chunk, _t0 = self.inflight.pop(future)
            for task in chunk:
                self._count("timeouts")
                self._fail_or_retry(task, {
                    "error": "SupervisorTimeout",
                    "message": f"exceeded the supervisor's "
                               f"{self.timeout:g}s wall-clock deadline "
                               f"per task (worker stopped)",
                    "exit_code": 6, "family": "transient"})
        kill = self.executor == "process"
        if kill:
            # Innocent bystanders of our own kill: re-run at the same
            # attempt, no death on their record.
            for chunk, _t0 in self.inflight.values():
                for task in chunk:
                    task.attempts -= 1
                self._enqueue(chunk)
            self.inflight.clear()
        self._retire(kill)

    def _broken(self, dead: List[List[Task]]) -> None:
        """The pool broke: one death, charged to ``dead`` and every
        chunk still in flight; the next dispatch respawns the pool."""
        self._count("worker_deaths")
        dead += [chunk for chunk, _t0 in self.inflight.values()]
        self.inflight.clear()
        self._retire()
        for chunk in dead:
            self._died(chunk)

    def _died(self, chunk: List[Task]) -> None:
        for task in chunk:
            task.deaths += 1
            if task.deaths >= 2:
                exc = PoisonPointError(
                    f"quarantined: {task.deaths} worker process(es) "
                    f"died while it was being evaluated",
                    deaths=task.deaths)
                doc = error_document(exc)
                doc["family"] = "poison"
                doc["deaths"] = task.deaths
                self._count("quarantined")
                self.client.fail(task, doc)
            else:
                self._fail_or_retry(task, {
                    "error": "WorkerDeath",
                    "message": "worker process died while evaluating "
                               "this task",
                    "exit_code": 1, "family": "transient",
                    "deaths": task.deaths})

    def _settle(self, task: Task, out: Dict) -> None:
        doc = out.get("error")
        if doc and self._retryable(task, doc):
            self._retry(task, doc)
        else:
            self.client.settle(task, out)

    def _fail_or_retry(self, task: Task, doc: Dict) -> None:
        if self._retryable(task, doc):
            self._retry(task, doc)
        else:
            self.client.fail(task, doc)

    def _retryable(self, task: Task, doc: Dict) -> bool:
        family = doc.get("family") or error_family(doc.get("error", ""))
        return family == "transient" and \
            task.attempts < self.retry.max_attempts

    def _retry(self, task: Task, doc: Dict) -> None:
        self._count("retries")
        self.client.retry(task, doc)
        self.delayed.append((time.monotonic()
                             + self.retry.delay(task.attempts), [task]))

    def _count(self, name: str) -> None:
        self.counters[name] += 1
        if telemetry.enabled():
            telemetry.metrics().counter(
                f"{self.metric_prefix}.{name}").inc()
