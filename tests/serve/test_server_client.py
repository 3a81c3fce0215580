"""End-to-end daemon tests: a real ``ServeServer`` on a background
thread, real sockets, and the synchronous :class:`ServeClient`.

The serving guarantees under test:

* every response streams at least one heartbeat before its result;
* N concurrent identical requests are answered by ONE computation and
  receive bit-identical payload bytes (``dedup_hits == N - 1``);
* queued compatible scalar requests coalesce into one lane-group whose
  per-request payloads are bit-identical to direct scalar execution;
* evaluation errors come back as structured response documents, while
  protocol-level garbage is rejected with an error event;
* the client retries connection-level failures and distinguishes a
  hung server (``ServeTimeout``) from a dead one
  (``ServeConnectionError``).

Thread executor throughout: the pool shares this process, so direct
:func:`repro.api.execute` results are byte-comparable and tests stay
fast.  Process-pool supervision is covered in test_scheduler.py.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import execute
from repro.api.requests import EVAL_SCHEMA, EvaluationRequest
from repro.cli import main
from repro.dse import EXPLORE_SCHEMA, GridSpace, explore
from repro.dse.engine import PointResult, RetryPolicy
from repro.errors import ReproError
from repro.serve import (
    COUNTER_KEYS,
    PROTOCOL,
    ServeClient,
    ServeConnectionError,
    ServeTimeout,
    response_payload_bytes,
    start_in_thread,
)
from repro.serve.protocol import event_bytes, response_header

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.02, jitter=0.0)


@pytest.fixture
def server():
    """A factory for thread-backed daemons, stopped at teardown."""
    handles = []

    def make(**kwargs):
        kwargs.setdefault("executor", "thread")
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("heartbeat_s", 0.05)
        handle = start_in_thread(**kwargs)
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.stop()


def client_for(handle, **kw):
    kw.setdefault("timeout", 60.0)
    return ServeClient(handle.address, **kw)


#: A deliberately slow request (dense kernel x 8 lanes, ~2s) used to
#: park a one-worker daemon so concurrent requests provably queue.
BLOCKER = EvaluationRequest(workload="fib",
                            sim={"kernel": "dense", "batch": 8})


def occupy_worker(handle):
    """Send BLOCKER from a background thread; returns (thread, event)
    where the event fires once a heartbeat shows the worker actually
    picked it up — the deterministic moment to enqueue rivals."""
    running = threading.Event()

    def on_hb(ev):
        if ev.get("state") == "running":
            running.set()

    thread = threading.Thread(
        target=lambda: client_for(
            handle, on_heartbeat=on_hb).evaluate(BLOCKER))
    thread.start()
    return thread, running


class TestRoundTrip:
    def test_health(self, server):
        doc = client_for(server()).health()
        assert doc["status"] == "ok"
        assert isinstance(doc["pid"], int)
        assert doc["uptime_s"] >= 0

    def test_evaluate_matches_direct_execution(self, server):
        req = EvaluationRequest(workload="fib", passes="localize")
        resp = client_for(server()).evaluate(req)
        assert resp.ok, resp.error
        assert resp.request_key == req.canonical_key()
        assert resp.meta["lru"] in ("hit", "miss")
        direct = execute(req)
        assert response_payload_bytes(resp.to_json()) == \
            response_payload_bytes(direct.to_json()), \
            "served payload must be bit-identical to local execution"

    def test_second_identical_request_hits_the_front_lru(self, server):
        handle = server(workers=1)
        client = client_for(handle)
        req = EvaluationRequest(source=SRC, args=(16, 2.0))
        first = client.evaluate(req)
        second = client.evaluate(req)       # sequential: no dedup
        assert first.ok and second.ok
        assert second.meta["lru"] == "hit"
        counters = client.report()["scheduler"]["counters"]
        assert counters["lru_hits"] >= 1
        assert counters["dedup_hits"] == 0

    def test_evaluate_many_lanes_match_direct(self, server):
        req = EvaluationRequest(source=SRC,
                                args_list=((4, 1.0), (8, 2.0)))
        resp = client_for(server()).evaluate(req)
        assert resp.ok, resp.error
        assert len(resp.lanes) == 2
        direct = execute(req)
        assert response_payload_bytes(resp.to_json()) == \
            response_payload_bytes(direct.to_json())

    def test_seeded_batch_lanes_match_direct(self, server):
        # What `repro client evaluate F --args 16 2.0 --seed 5
        # --batch 3` sends: three seeded lanes of one source request.
        req = EvaluationRequest(source=SRC, args=(16, 2.0), seed=5,
                                sim={"batch": 3})
        resp = client_for(server()).evaluate(req)
        assert resp.ok, resp.error
        assert len(resp.lanes) == 3
        assert resp.lanes == execute(req).lanes

    def test_heartbeat_streams_before_every_result(self, server):
        beats = []
        client = client_for(server(), on_heartbeat=beats.append)
        assert client.evaluate(EvaluationRequest(workload="fib")).ok
        assert beats, "heartbeat-first: >=1 heartbeat before a result"
        assert beats[0]["state"] in ("queued", "running")
        assert "queue_depth" in beats[0]

    def test_unix_socket_transport(self, server, tmp_path):
        path = str(tmp_path / "serve.sock")
        handle = server(socket_path=path)
        assert handle.address == f"unix:{path}"
        client = ServeClient(handle.address, timeout=60.0)
        assert client.health()["status"] == "ok"
        assert client.evaluate(EvaluationRequest(workload="covar")).ok


class TestDedup:
    N = 6

    def test_n_subscribers_one_execution_same_bytes(self, server):
        handle = server(workers=1)
        req = EvaluationRequest(workload="fib")
        # Occupy the lone worker so the duplicates provably overlap:
        # they all queue behind the blocker, dedup while queued.
        results = [None] * self.N
        errors = []
        barrier = threading.Barrier(self.N)

        def fire(i):
            try:
                barrier.wait(10)
                results[i] = client_for(handle).evaluate(req)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        block_thread, running = occupy_worker(handle)
        assert running.wait(30), "blocker never reached the worker"
        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(self.N)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        block_thread.join(60)
        assert not errors, errors

        payloads = {response_payload_bytes(r.to_json())
                    for r in results}
        assert len(payloads) == 1, \
            "dedup subscribers must receive identical payload bytes"
        assert all(r.ok for r in results)
        counters = client_for(handle).report()["scheduler"]["counters"]
        assert counters["dedup_hits"] == self.N - 1
        # blocker + one shared execution
        assert counters["executions"] == 2
        assert counters["requests"] == self.N + 1


class TestCoalescing:
    ARGS = ((4, 1.0), (8, 2.0), (16, 0.5))

    def test_queued_group_rides_one_batch_bit_identically(
            self, server):
        handle = server(workers=1, max_batch=8)
        reqs = [EvaluationRequest(source=SRC, args=args)
                for args in self.ARGS]
        results = [None] * len(reqs)
        errors = []
        barrier = threading.Barrier(len(reqs))

        def fire(i):
            try:
                barrier.wait(10)
                results[i] = client_for(handle).evaluate(reqs[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        block_thread, running = occupy_worker(handle)
        assert running.wait(30), "blocker never reached the worker"
        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(len(reqs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        block_thread.join(60)
        assert not errors, errors

        counters = client_for(handle).report()["scheduler"]["counters"]
        assert counters["batches"] == 1
        assert counters["coalesced_lanes"] == len(reqs) - 1
        for req, resp in zip(reqs, results):
            assert resp.ok, resp.error
            assert resp.meta["coalesced"] == len(reqs)
            direct = execute(req)
            assert response_payload_bytes(resp.to_json()) == \
                response_payload_bytes(direct.to_json()), \
                f"lane args={req.args} diverged from scalar execution"


class TestErrors:
    def test_evaluation_error_is_a_structured_response(self, server):
        resp = client_for(server()).evaluate(
            EvaluationRequest(workload="fib", passes="no_such_pass"))
        assert not resp.ok
        assert resp.error["family"] == "deterministic"
        assert resp.error["exit_code"] != 0
        assert "no_such_pass" in resp.error["message"]

    def test_failed_batch_exits_like_scalar(self, server, tmp_path,
                                            capsys):
        # Served twin of the local ``simulate --batch`` failure: lanes
        # that never finished exit with the scalar code, not 1.
        path = tmp_path / "k.mc"
        path.write_text(SRC)
        run = ["client", "evaluate", str(path), "--args", "16", "2.0",
               "--max-cycles", "50", "--quiet",
               "--address", server().address]
        assert main(run) == 6
        capsys.readouterr()
        assert main(run + ["--batch", "2"]) == 6
        captured = capsys.readouterr()
        assert "MISMATCH" not in captured.out
        assert "lane 0: SimulationTimeout: exceeded max_cycles=50" in \
            captured.err

    def test_malformed_request_rejected_with_error_event(self, server):
        client = client_for(server())
        with pytest.raises(ReproError, match="server rejected"):
            client._call("/v1/evaluate", {"schema": EVAL_SCHEMA})

    def test_version_skew_rejected_loudly(self, server):
        client = client_for(server())
        doc = EvaluationRequest(workload="fib").to_json()
        doc["schema"] = "repro.eval/v99"
        with pytest.raises(ReproError, match="unsupported schema"):
            client._call("/v1/evaluate", doc)

    def test_unknown_verb_rejected(self, server):
        client = client_for(server())
        with pytest.raises(ReproError, match="unknown path"):
            client._call("/v1/teleport", {})


class TestExploreAndReport:
    def test_explore_sweep_through_the_queue(self, server):
        handle = server(max_batch=8)
        report = client_for(handle).explore({
            "workload": "saxpy",
            "grid": {"banks": [1, 2]},
            "pipeline": "localize,banking={banks}",
            "objectives": ["time_us", "alms"],
        })
        assert report["workload"] == "saxpy"
        points = [PointResult.from_json(p) for p in report["points"]]
        assert len(points) == 2
        assert all(p.ok for p in points)
        assert {p.params["banks"] for p in points} == {1, 2}
        assert report["pareto"], "a 2-point sweep has a frontier"
        assert set(report["scheduler"]["counters"]) == \
            set(COUNTER_KEYS)

    def test_served_sweep_matches_local_explore(self, server):
        # A sim.* axis, which the daemon once rejected for every point:
        # served and local sweeps plan and evaluate the same requests,
        # so their point documents agree except in provenance.
        grid = {"banks": [1, 2], "sim.loop_invocation_window": [1, 2]}
        template = "localize,banking={banks}"
        served = client_for(server()).explore(
            {"workload": "saxpy", "grid": grid, "pipeline": template})
        local = explore("saxpy", GridSpace(grid), pipeline=template,
                        workers=1, cache=None)
        provenance = ("source", "key", "fingerprint", "wall_s",
                      "attempts")

        def outcome(doc):
            return {k: v for k, v in doc.items() if k not in provenance}

        assert served["schema"] == EXPLORE_SCHEMA
        assert [p["status"] for p in served["points"]] == ["ok"] * 4
        assert [outcome(p) for p in served["points"]] == \
            [outcome(p.to_json()) for p in local.points]
        assert served["pareto"] == local.pareto

    def test_explore_spec_validated(self, server):
        client = client_for(server())
        with pytest.raises(ReproError, match="workload"):
            client.explore({"grid": {"banks": [1]}})
        with pytest.raises(ReproError, match="unknown objective"):
            client.explore({"workload": "saxpy",
                            "grid": {"banks": [1]},
                            "objectives": ["beauty"]})

    def test_report_counters_complete(self, server):
        doc = client_for(server()).report()
        assert doc["protocol"] == PROTOCOL
        assert set(doc["scheduler"]["counters"]) == set(COUNTER_KEYS)

    def test_shutdown_verb_stops_the_daemon(self, server):
        handle = server()
        client = client_for(handle)
        assert client.shutdown()["status"] == "shutting down"
        handle._thread.join(15)
        assert not handle._thread.is_alive()
        dead = ServeClient(handle.address, retry=FAST_RETRY,
                           connect_timeout=1.0)
        with pytest.raises(ServeConnectionError):
            dead.health()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _fake_server(behavior, conns=4):
    """A misbehaving 'daemon': accepts ``conns`` connections and runs
    ``behavior`` against each."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]

    def loop():
        for _ in range(conns):
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            try:
                behavior(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    threading.Thread(target=loop, daemon=True).start()
    return listener, port


class TestClientFailureModes:
    def test_connection_refused_retries_then_raises(self):
        port = _free_port()
        client = ServeClient(f"127.0.0.1:{port}", retry=FAST_RETRY,
                             connect_timeout=0.5)
        with pytest.raises(ServeConnectionError,
                           match=r"after 2 attempt\(s\)"):
            client.health()

    def test_silent_server_is_a_timeout_not_a_retry_loop(self):
        def mute(conn):
            conn.recv(65536)
            time.sleep(1.0)   # never answer

        listener, port = _fake_server(mute)
        try:
            client = ServeClient(f"127.0.0.1:{port}",
                                 timeout=0.25, retry=FAST_RETRY)
            t0 = time.monotonic()
            with pytest.raises(ServeTimeout,
                               match="not even a heartbeat"):
                client.health()
            # ServeTimeout is terminal: no retry sleep was spent.
            assert time.monotonic() - t0 < 0.9
        finally:
            listener.close()

    def test_killed_mid_stream_retries_then_raises(self):
        def die_after_hello(conn):
            conn.recv(65536)
            conn.sendall(response_header() + event_bytes(
                {"event": "hello", "protocol": PROTOCOL}))
            # connection drops before any result event

        listener, port = _fake_server(die_after_hello)
        try:
            client = ServeClient(f"127.0.0.1:{port}", timeout=5.0,
                                 retry=FAST_RETRY)
            with pytest.raises(ServeConnectionError,
                               match="before a result"):
                client.health()
        finally:
            listener.close()

    def test_protocol_skew_fails_fast(self):
        def wrong_protocol(conn):
            conn.recv(65536)
            conn.sendall(response_header() + event_bytes(
                {"event": "hello", "protocol": "repro.serve/99"}))

        listener, port = _fake_server(wrong_protocol)
        try:
            client = ServeClient(f"127.0.0.1:{port}", timeout=5.0,
                                 retry=FAST_RETRY)
            with pytest.raises(ReproError, match="protocol skew"):
                client.health()
        finally:
            listener.close()

    def test_heartbeats_keep_a_slow_evaluation_alive(self, server):
        # Read timeout far below the evaluation's wall time: only the
        # heartbeat stream keeps the client from tripping ServeTimeout.
        handle = server(workers=1, heartbeat_s=0.05)
        client = client_for(handle, timeout=0.5)
        block_thread, running = occupy_worker(handle)
        assert running.wait(30)
        resp = client.evaluate(EvaluationRequest(workload="covar"))
        assert resp.ok                   # waited ~2s behind the blocker
        block_thread.join(60)
