"""``serve-mix``: a ``repro serve`` daemon driven by two clients.

The daemon is a subprocess on a Unix socket with one process worker.
One pass of the op set is 20 requests:

* 10 repeats of a hot set of three workload + passes pairs (front-end
  LRU hits; identical requests in flight at once are deduplicated);
* 6 MiniC source scalars with distinct arguments, memory seeded
  through ``EvaluationRequest.seed``;
* 4 ``evaluate_many`` batches of 8 lanes that share control, so they
  run vectorized through ``repro.core.lanes``.

Set-up is daemon spawn until it first answers ``health``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (ROOT, SETUP_SAMPLES, Bench, BenchError, Sample,
                    child_env, closed_loop, op_stream)

HOT = (("spmv", "localize"), ("softm16", "fusion"),
       ("dense8", "localize,fusion"))
HOT_OPS, SCALAR_OPS, BATCH_OPS, LANES = 10, 6, 4, 8
#: Op-set entries whose served payload bytes are compared with direct
#: ``execute()`` output on every run of them.
SAMPLED_OPS = 5
CLIENTS = 2

SAXPY = """
array x: f32[32];
array y: f32[32];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""

SCALE = """
array v: i32[16];
array w: i32[16];
func main(n: i32, k: i32) {
  for (i = 0; i < n; i = i + 1) { w[i] = v[i] * k + w[i]; }
}
"""


def _cycles(doc: Dict) -> List[int]:
    if doc.get("lanes") is not None:
        return [lane.get("cycles") for lane in doc["lanes"]]
    return [(doc.get("evaluation") or {}).get("cycles")]


def _verified(doc: Dict) -> bool:
    evs = doc["lanes"] if doc.get("lanes") is not None \
        else [doc.get("evaluation") or {}]
    return all(ev.get("verified") is True for ev in evs)


class ServeMix(Bench):
    name = "serve-mix"
    clients = CLIENTS

    def __init__(self, seed: int, work: str):
        self.daemons: List[subprocess.Popen] = []
        self.client = None
        super().__init__(seed, work)

    def make_ops(self) -> List:
        from repro.api import EvaluationRequest
        rng = random.Random(f"{self.seed}:mix")
        requests = [EvaluationRequest(workload=w, passes=p)
                    for w, p in (HOT * HOT_OPS)[:HOT_OPS]]
        # Trip counts are fixed so every seed asks for the same work;
        # the seed varies the scalars, the memory images and the order.
        for _ in range(SCALAR_OPS):
            requests.append(EvaluationRequest(
                source=SAXPY, args=(32, round(rng.uniform(0.5, 2.0), 2)),
                seed=rng.randint(1, 10 ** 6)))
        for _ in range(BATCH_OPS):
            requests.append(EvaluationRequest(
                source=SCALE, args_list=tuple(
                    (12, rng.randint(1, 9)) for _ in range(LANES))))
        self.sampled = set(rng.sample(range(len(requests)), SAMPLED_OPS))
        return list(enumerate(requests))

    # -- daemon lifecycle --------------------------------------------------
    def _spawn(self) -> float:
        """Start a daemon; seconds from spawn to its first health."""
        from repro.dse.engine import RetryPolicy
        from repro.serve import ServeClient, ServeConnectionError
        # Relative to the checkout (the cwd), so the socket path stays
        # short however deep the checkout lives.
        sock = os.path.relpath(
            os.path.join(self.work, f"daemon-{len(self.daemons)}.sock"),
            ROOT)
        log_path = os.path.join(self.work, "daemon.log")
        t0 = time.perf_counter()
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--workers", "1"],
                cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        self.daemons.append(proc)
        client = ServeClient(f"unix:{sock}", timeout=60.0,
                             connect_timeout=1.0,
                             retry=RetryPolicy(max_attempts=1))
        while True:
            if proc.poll() is not None:
                with open(log_path, "rb") as fh:
                    tail = fh.read()[-800:].decode(errors="replace")
                raise BenchError(f"daemon exited: {tail}")
            try:
                client.health()
                break
            except ServeConnectionError:
                if time.perf_counter() - t0 > 60:
                    raise BenchError("daemon did not answer in 60s")
                time.sleep(0.002)
        self.client = client
        return time.perf_counter() - t0

    def _stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None and self.client is not None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - killed below if need be
                pass
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)

    def setup(self, host) -> List[float]:
        times = []
        for i in range(SETUP_SAMPLES):
            host.sample(force=True)
            times.append(self._spawn())
            if i < SETUP_SAMPLES - 1:
                self._stop(self.daemons[-1])
        return times

    def close(self) -> None:
        for proc in self.daemons:
            if proc.poll() is None:
                self._stop(proc)

    # -- ops ---------------------------------------------------------------
    def warm_up(self) -> None:
        """Direct ``execute()`` of every op (references), then one
        served pass so the daemon's LRU is warm."""
        from repro.api import execute
        from repro.serve import response_payload_bytes
        self.reference: Dict[int, List[int]] = {}
        self.payloads: Dict[int, bytes] = {}
        for index, request in self.ops:
            response = execute(request)
            doc = response.to_json()
            if not response.ok or not _verified(doc):
                raise BenchError(f"warm-up {request.describe()}: "
                                 f"{response.describe()}")
            self.reference[index] = _cycles(doc)
            self.payloads[index] = response_payload_bytes(doc)
            self.accel_cycles += sum(_cycles(doc))
            evs = doc["lanes"] or [doc["evaluation"]]
            self.accel_alms += evs[0]["synth"]["alms"]
        for op in self.ops:
            failed = [s.error for s in self.run_op(op) if s.error]
            if failed:
                raise BenchError(f"warm-up: {failed[0]}")

    def check(self, index: int, doc: Dict) -> Optional[str]:
        from repro.serve import response_payload_bytes
        if doc.get("status") != "ok":
            return f"op {index}: {doc.get('error')}"
        if not _verified(doc):
            return f"op {index}: golden check did not pass"
        if _cycles(doc) != self.reference[index]:
            return (f"op {index}: cycles {_cycles(doc)}, "
                    f"{self.reference[index]} at warm-up")
        if index in self.sampled and \
                response_payload_bytes(doc) != self.payloads[index]:
            return f"op {index}: served payload differs from execute()"
        return None

    def _send(self, client, op):
        index, request = op
        t0 = time.perf_counter()
        try:
            doc = client.evaluate(request).to_json()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            return Sample(time.perf_counter() - t0, 0,
                          f"op {index}: {exc}"), None
        latency = time.perf_counter() - t0
        error = self.check(index, doc)
        return Sample(latency, sum(c or 0 for c in _cycles(doc)),
                      error), doc

    def run_op(self, op) -> List[Sample]:
        return [self._send(self.client, op)[0]]

    def direct_op(self, op) -> List[Sample]:
        """The daemon worker's entry point, called in this thread."""
        from repro.serve.worker import run_payload
        index, request = op
        t0 = time.perf_counter()
        doc = run_payload(request.to_json())
        latency = time.perf_counter() - t0
        return [Sample(latency, sum(c or 0 for c in _cycles(doc)),
                       self.check(index, doc))]

    def span_phase(self, seconds: float, host):
        """Two clients against an in-process daemon (thread executor,
        one worker), so telemetry sees the serve and pipeline layers."""
        from repro import telemetry
        from repro.serve import ServeClient
        from repro.serve.server import start_in_thread
        sock = os.path.relpath(os.path.join(self.work, "traced.sock"),
                               ROOT)
        handle = start_in_thread(socket_path=sock, workers=1,
                                 executor="thread")
        try:
            client = ServeClient(handle.address, timeout=60.0)
            for op in self.ops:                 # warm the LRU
                self._send(client, op)
            counters = handle.server.scheduler.counters
            before = dict(counters)
            docs = []

            def do_op(op):
                sample, doc = self._send(client, op)
                if doc is not None:
                    docs.append((sample, doc))
                return [sample]

            telemetry.enable()
            try:
                log = closed_loop(op_stream(self.seed, self.ops), do_op,
                                  seconds, CLIENTS, host)
                delta = {k: counters[k] - before[k] for k in counters}
                executions = {}
                for _sample, doc in docs:
                    meta = doc.get("meta") or {}
                    executions[(doc.get("request_key"),
                                json.dumps(meta, sort_keys=True))] = \
                        meta
                stages = self.stage_split(
                    log.ok, executions=len(executions),
                    exec_s=sum(m.get("wall_s", 0.0)
                               for m in executions.values()))
            finally:
                telemetry.disable()
        finally:
            handle.stop()
        walls = [(s.latency_s, (d.get("meta") or {}).get("wall_s", 0.0))
                 for s, d in docs]
        batches = [d for _s, d in docs if d.get("lanes") is not None]
        jobs = max(1, delta["requests"] - delta["dedup_hits"])
        metrics = {
            "traced.ops_per_s": len(log.ok) / log.elapsed_s,
            "serve.exec_ms": statistics.median(w for _l, w in walls) * 1e3,
            "serve.overhead_ms": statistics.median(l - w for l, w in walls)
            * 1e3,
            "serve.lru_hit_frac": delta["lru_hits"] / jobs,
            "serve.dedup_hits": 100.0 * delta["dedup_hits"]
            / max(1, delta["requests"]),
            "serve.retries": float(delta["retries"]),
            "serve.worker_deaths": float(delta["worker_deaths"]),
            "serve.response_kb": statistics.mean(
                len(json.dumps(d)) for _s, d in docs) / 1024.0,
            "serve.batch_vectorized_frac": sum(
                (d.get("meta") or {}).get("batch_mode") == "vectorized"
                for d in batches) / max(1, len(batches)),
            **stages,
        }
        return metrics, log.samples
