"""The evaluation daemon: asyncio front door over the scheduler.

``ServeServer`` binds a TCP port or Unix socket, parses HTTP-lite
requests (:mod:`repro.serve.protocol`), and streams NDJSON events
back: a ``hello``, periodic ``heartbeat`` lines while the request is
queued or running, then exactly one ``result``.  Heartbeats come from
the event loop (per connection, time-based) — simulation-side
callbacks cannot cross the worker pool boundary, and a queued request
deserves liveness signals too.

Verbs:

``POST /v1/evaluate`` / ``/v1/evaluate_many``
    Body: an :class:`~repro.api.EvaluationRequest` document.  Both
    paths accept both kinds (the request's ``kind`` field rules).
``POST /v1/explore``
    Body: a sweep spec (see :meth:`ServeServer._handle_explore`); the
    sweep is planned with :func:`repro.dse.engine.plan_points`, as
    ``repro explore`` plans it, and every point's request funnels
    through the same scheduler queue as single evaluates — dedup and
    coalescing apply to sweep points too.  The answer is a
    ``repro.explore`` report plus the scheduler's counters.
``POST /v1/report``
    Scheduler counters, queue depth, and (if telemetry is on) a
    metrics snapshot.
``POST /v1/health`` / ``POST /v1/shutdown``
    Liveness probe / graceful stop.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from typing import Dict, Optional

from .. import telemetry
from ..api.requests import EvaluationRequest
from ..dse.cache import SIM_KEY_FIELDS, sim_key_dict
from ..dse.engine import METRICS, ExploreReport, plan_points
from ..errors import ReproError, error_document
from ..sim import SimParams
from ..supervise import RetryPolicy
from .protocol import (PROTOCOL, ProtocolError, event_bytes,
                       read_request, response_header, verb_of)
from .scheduler import Scheduler

DEFAULT_HEARTBEAT_S = 2.0


class ServeServer:
    """One daemon: a listener, a scheduler, and its connections."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 socket_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 executor: str = "process",
                 max_batch: int = 8,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout: Optional[float] = None,
                 ledger_root: Optional[str] = None):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.heartbeat_s = max(0.05, heartbeat_s)
        self.scheduler = Scheduler(
            workers=workers, executor=executor, max_batch=max_batch,
            retry=retry, job_timeout=job_timeout,
            ledger_root=ledger_root)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._stop = asyncio.Event()
        await self.scheduler.start()
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """Client-ready address string (``host:port`` or
        ``unix:/path``)."""
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    async def serve_until_stopped(self) -> None:
        await self._stop.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()
        if self.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)

    def run(self) -> None:
        """Blocking entry point (the CLI's ``repro serve``)."""
        async def _main():
            await self.start()
            await self.serve_until_stopped()
        asyncio.run(_main())

    # -- connection handling -----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await read_request(reader)
            except ProtocolError as exc:
                await self._reject(writer, exc)
                return
            if not method:  # probe/scan: closed without a request
                return
            try:
                if method != "POST":
                    raise ProtocolError(
                        f"only POST is supported, got {method}")
                verb = verb_of(path)
            except ProtocolError as exc:
                await self._reject(writer, exc)
                return
            writer.write(response_header())
            await self._hello(writer, verb)
            handler = getattr(self, f"_handle_{verb}")
            await handler(writer, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            with contextlib.suppress(Exception):
                await self._event(writer, {
                    "event": "error", **error_document(exc)})
        finally:
            with contextlib.suppress(Exception):
                writer.write_eof()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _reject(self, writer, exc: ProtocolError) -> None:
        writer.write(response_header(400, "Bad Request"))
        await self._event(writer, {"event": "error",
                                   **error_document(exc)})

    async def _hello(self, writer, verb: str) -> None:
        await self._event(writer, {
            "event": "hello", "protocol": PROTOCOL, "verb": verb,
            "pid": os.getpid(),
            "workers": self.scheduler.workers,
            "executor": self.scheduler.executor_kind})

    async def _event(self, writer, doc: Dict) -> None:
        writer.write(event_bytes(doc))
        await writer.drain()

    # -- verbs -------------------------------------------------------------
    async def _handle_evaluate(self, writer, body) -> None:
        if not isinstance(body, dict):
            raise ProtocolError("evaluate needs a JSON request body")
        try:
            request = EvaluationRequest.from_json(body)
        except ReproError as exc:
            doc = error_document(exc)
            doc["family"] = "deterministic"
            await self._event(writer, {"event": "error", **doc})
            return
        job = await self.scheduler.submit(request, body)
        t0 = time.monotonic()
        # Heartbeat-first: every request streams at least one
        # progress line before its result, so clients can tell a
        # working server from a hung one without timing games.
        while not job.done.is_set():
            await self._event(writer, {
                "event": "heartbeat", "state": job.state,
                "elapsed_s": round(time.monotonic() - t0, 3),
                "queue_depth": self.scheduler.queue_depth(),
                "attempts": job.attempts})
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(job.done.wait(),
                                       self.heartbeat_s)
        # The sealed bytes: identical for every subscriber of the job.
        writer.write(job.payload_bytes)
        await writer.drain()

    _handle_evaluate_many = _handle_evaluate

    async def _handle_explore(self, writer, body) -> None:
        """Run a sweep through the serving queue.

        Spec document::

            {"workload": "fib", "pipeline": "<template>",
             "points": [{...}, ...] | "grid": {"axis": [v, ...]},
             "variant": "base", "sim": {...}, "check": true,
             "objectives": ["time_us", "alms"]}
        """
        if not isinstance(body, dict):
            raise ProtocolError("explore needs a JSON spec body")
        try:
            spec = _ExploreSpec(body)
        except ReproError as exc:
            doc = error_document(exc)
            doc["family"] = "deterministic"
            await self._event(writer, {"event": "error", **doc})
            return
        t0 = time.monotonic()
        planned = plan_points(spec.workload, spec.params_list,
                              spec.template, spec.sim,
                              variant=spec.variant, check=spec.check)
        jobs = [None if row["request"] is None
                else await self.scheduler.submit(row["request"])
                for row in planned]
        total = len(planned)
        pending = [j for j in jobs if j is not None]
        while any(not j.done.is_set() for j in pending):
            done_n = sum(j.done.is_set() for j in pending) \
                + (total - len(pending))
            await self._event(writer, {
                "event": "heartbeat", "state": "exploring",
                "done": done_n, "total": total,
                "elapsed_s": round(time.monotonic() - t0, 3),
                "queue_depth": self.scheduler.queue_depth()})
            waits = [asyncio.create_task(j.done.wait())
                     for j in pending if not j.done.is_set()]
            _, rest = await asyncio.wait(
                waits, timeout=self.heartbeat_s,
                return_when=asyncio.ALL_COMPLETED)
            for w in rest:
                w.cancel()
        for row, job in zip(planned, jobs):
            if job is None:
                continue
            response = job.response_doc
            point = row["_point"]
            point.key = response.get("request_key", "")
            point.wall_s = (response.get("meta") or {}).get("wall_s", 0.0)
            point.attempts = job.attempts
            point.settle(response.get("evaluation")
                         if response.get("status") == "ok" else None,
                         source="fresh", error=response.get("error"))
        report = ExploreReport(
            workload=spec.workload, variant=spec.variant,
            template=spec.template, objectives=spec.objectives,
            sim=sim_key_dict(spec.sim), workers=self.scheduler.workers,
            points=[row["_point"] for row in planned],
            wall_s=time.monotonic() - t0).to_json()
        report["scheduler"] = self.scheduler.snapshot()
        await self._event(writer, {"event": "result",
                                   "response": report})

    async def _handle_report(self, writer, _body) -> None:
        doc: Dict = {"scheduler": self.scheduler.snapshot(),
                     "protocol": PROTOCOL, "pid": os.getpid()}
        if telemetry.enabled():
            doc["metrics"] = telemetry.metrics().snapshot()
        await self._event(writer, {"event": "result", "response": doc})

    async def _handle_health(self, writer, _body) -> None:
        await self._event(writer, {
            "event": "result",
            "response": {"status": "ok", "pid": os.getpid(),
                         "uptime_s": self.scheduler.snapshot()
                         ["uptime_s"]}})

    async def _handle_shutdown(self, writer, _body) -> None:
        await self._event(writer, {"event": "result",
                                   "response": {"status":
                                                "shutting down"}})
        self._stop.set()


class _ExploreSpec:
    """Validated explore request body."""

    def __init__(self, body: Dict):
        known = {"workload", "pipeline", "points", "grid", "variant",
                 "sim", "check", "objectives"}
        unknown = set(body) - known
        if unknown:
            raise ReproError(
                f"unknown explore field(s): "
                f"{', '.join(sorted(unknown))}")
        self.workload = body.get("workload")
        if not self.workload:
            raise ReproError("explore spec needs a workload")
        self.template = body.get("pipeline") or ""
        self.variant = body.get("variant", "base")
        self.check = bool(body.get("check", True))
        self.objectives = list(body.get("objectives")
                               or ("time_us", "alms"))
        for objective in self.objectives:
            if objective not in METRICS:
                raise ReproError(
                    f"unknown objective {objective!r}; known: "
                    f"{', '.join(METRICS)}")
        if body.get("points"):
            self.params_list = [dict(p) for p in body["points"]]
        elif body.get("grid"):
            from ..dse.space import GridSpace
            self.params_list = [dict(p)
                                for p in GridSpace(body["grid"])]
        else:
            raise ReproError(
                "explore spec needs points=[...] or grid={...}")
        # A sweep evaluates what `repro explore` does: the
        # result-determining sim fields plus the watchdog.
        sim = dict(body.get("sim") or {})
        known = SIM_KEY_FIELDS + ("wallclock_timeout",)
        unknown = set(sim) - set(known)
        if unknown:
            raise ReproError(
                f"unknown sweep sim field(s): "
                f"{', '.join(sorted(unknown))}; known: "
                f"{', '.join(known)}")
        self.sim = SimParams(**sim)


def start_in_thread(**kwargs) -> "ServerHandle":
    """Spin a daemon on a background thread (tests + CLI client
    round-trips); returns a handle with ``address`` and ``stop()``."""
    handle = ServerHandle(ServeServer(**kwargs))
    handle.start()
    return handle


class ServerHandle:
    def __init__(self, server: ServeServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def address(self) -> str:
        return self.server.address

    def start(self) -> None:
        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def _main():
                await self.server.start()
                self._started.set()
                await self.server.serve_until_stopped()

            try:
                loop.run_until_complete(_main())
            finally:
                with contextlib.suppress(Exception):
                    loop.close()

        self._thread = threading.Thread(target=_run,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(30):
            raise ReproError("serve daemon failed to start in 30s")

    def stop(self, timeout: float = 15.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
