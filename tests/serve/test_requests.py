"""The ``repro.eval/v1`` wire schema: round-trip goldens, identity
keys, and the strategy-independence contract.

These requests cross process boundaries (CLI -> daemon -> pool
worker), so the schema is pinned hard: unknown schemas, unknown keys,
and unknown sim fields are rejected loudly instead of silently
dropped, and the response's deterministic payload (everything but
``meta``) must serialize identically no matter how the evaluation was
executed.
"""

import json

import pytest

from repro.api import execute
from repro.api.requests import (
    EVAL_SCHEMA,
    GROUP_FIELDS,
    SIM_FIELDS,
    EvaluationRequest,
    EvaluationResponse,
)
from repro.errors import ReproError

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""

SUM_SRC = """
array x: i32[16];
func main(n: i32) -> i32 {
  var s: i32 = 0;
  for (i = 0; i < n; i = i + 1) { s = s + x[i]; }
  return s;
}
"""


class TestRequestRoundTrip:
    def test_workload_request_round_trips(self):
        req = EvaluationRequest(workload="fib", passes="localize",
                                sim={"kernel": "dense"}, name="fib-t")
        doc = req.to_json()
        assert doc["schema"] == EVAL_SCHEMA
        assert doc["kind"] == "evaluate"
        back = EvaluationRequest.from_json(doc)
        assert back == req
        assert back.canonical_key() == req.canonical_key()

    def test_source_request_round_trips(self):
        req = EvaluationRequest(source=SRC, args=(16, 2.0), seed=7)
        back = EvaluationRequest.from_json(req.to_json())
        assert back == req
        assert back.args == (16, 2.0)

    def test_batched_request_round_trips(self):
        req = EvaluationRequest(source=SRC,
                                args_list=((4, 1.0), (8, 2.0)))
        doc = req.to_json()
        assert doc["kind"] == "evaluate_many"
        back = EvaluationRequest.from_json(doc)
        assert back == req
        assert back.is_batch and back.kind == "evaluate_many"

    def test_json_wire_safe(self):
        req = EvaluationRequest(workload="gemm", sim={"batch": 3})
        assert json.loads(json.dumps(req.to_json())) == req.to_json()


class TestRequestValidation:
    def test_needs_exactly_one_of_workload_or_source(self):
        with pytest.raises(ReproError, match="exactly one"):
            EvaluationRequest()
        with pytest.raises(ReproError, match="exactly one"):
            EvaluationRequest(workload="fib", source=SRC)

    def test_unknown_sim_field_rejected(self):
        with pytest.raises(ReproError, match="unknown sim field"):
            EvaluationRequest(workload="fib", sim={"warp_speed": 9})

    def test_all_declared_sim_fields_accepted(self):
        sim = {name: None for name in SIM_FIELDS}
        sim.update(kernel="dense", batch=None)
        assert EvaluationRequest(workload="fib", sim=sim)

    def test_seeded_batch_lanes_equal_seeded_scalars(self):
        # seed= fills every lane's memory image, so each lane is the
        # seeded scalar request with that lane's args (the returned
        # sum reads the seeded array: unseeded, it would be 0).
        lanes = ((4,), (8,), (16,))
        resp = execute(EvaluationRequest(source=SUM_SRC, seed=3,
                                         args_list=lanes))
        assert resp.ok, resp.error
        for i, (lane, args) in enumerate(zip(resp.lanes, lanes)):
            scalar = execute(EvaluationRequest(source=SUM_SRC, seed=3,
                                               args=args))
            assert scalar.ok, scalar.error
            assert lane.pop("lane") == i
            assert lane == scalar.evaluation
            assert lane["verified"] is True
        assert any(lane["results"] != [0] for lane in resp.lanes)

    def test_seed_rejected_for_workload_request(self):
        with pytest.raises(ReproError, match="workloads own"):
            EvaluationRequest(workload="fib", seed=3)

    def test_schema_skew_rejected(self):
        doc = EvaluationRequest(workload="fib").to_json()
        doc["schema"] = "repro.eval/v2"
        with pytest.raises(ReproError, match="unsupported schema"):
            EvaluationRequest.from_json(doc)

    def test_unknown_key_rejected_not_dropped(self):
        doc = EvaluationRequest(workload="fib").to_json()
        doc["priority"] = "high"
        with pytest.raises(ReproError, match="version skew"):
            EvaluationRequest.from_json(doc)


class TestRemovedKernel:
    def test_trace_kernel_is_a_deterministic_error(self):
        # An old client or sweep journal naming the removed "trace"
        # kernel gets an error document that is never retried.
        resp = execute(EvaluationRequest(workload="saxpy",
                                         sim={"kernel": "trace"}))
        assert not resp.ok
        assert resp.error["error"] == "SimulationError"
        assert resp.error["message"] == \
            "unknown simulation kernel 'trace'"
        assert resp.error["exit_code"] == 6
        assert resp.error["family"] == "deterministic"


class TestIdentityKeys:
    def test_canonical_key_is_content_identity(self):
        a = EvaluationRequest(source=SRC, args=(16, 2.0))
        b = EvaluationRequest(source=SRC, args=(16, 2.0))
        c = EvaluationRequest(source=SRC, args=(8, 2.0))
        assert a.canonical_key() == b.canonical_key()
        assert a.canonical_key() != c.canonical_key()

    def test_group_key_ignores_args_only(self):
        a = EvaluationRequest(source=SRC, args=(16, 2.0),
                              passes="localize")
        b = EvaluationRequest(source=SRC, args=(4, 1.0),
                              passes="localize")
        c = EvaluationRequest(source=SRC, args=(16, 2.0),
                              passes="localize,banking=2")
        assert a.group_key() == b.group_key()
        assert a.group_key() != c.group_key()
        assert "args" not in GROUP_FIELDS

    def test_sim_config_splits_the_group(self):
        a = EvaluationRequest(workload="fib",
                              sim={"max_cycles": 10_000})
        b = EvaluationRequest(workload="fib",
                              sim={"kernel": "dense"})
        assert a.group_key() != b.group_key()

    def test_default_written_out_shares_identity(self):
        # The default kernel spelled out is the same computation as
        # leaving it out: one dedup key and one lane-group.
        a = EvaluationRequest(workload="fib", sim={})
        b = EvaluationRequest(workload="fib",
                              sim={"kernel": "compiled"})
        assert a.canonical_key() == b.canonical_key()
        assert a.group_key() == b.group_key()
        assert b.to_json()["sim"] == {}


class TestCoalescible:
    def test_plain_scalar_is_coalescible(self):
        assert EvaluationRequest(workload="fib").coalescible

    def test_batched_request_is_not(self):
        assert not EvaluationRequest(
            source=SRC, args_list=((4, 1.0), (8, 1.0))).coalescible
        assert not EvaluationRequest(
            workload="fib", sim={"batch": 2}).coalescible

    def test_faulted_request_is_not(self):
        req = EvaluationRequest(
            workload="fib",
            sim={"faults": {"events": [], "seed": 1}})
        assert not req.coalescible

    def test_seeded_request_is_not(self):
        assert not EvaluationRequest(source=SRC, seed=3).coalescible


class TestResponse:
    def test_round_trip_and_payload_excludes_meta(self):
        resp = EvaluationResponse(
            status="ok", request_key="k" * 64,
            evaluation={"cycles": 10}, meta={"wall_s": 1.23})
        back = EvaluationResponse.from_json(resp.to_json())
        assert back == resp
        assert back.ok and back.cycles == 10
        payload = resp.payload()
        assert "meta" not in payload
        assert payload["evaluation"] == {"cycles": 10}

    def test_bad_status_rejected(self):
        with pytest.raises(ReproError, match="ok|error"):
            EvaluationResponse(status="maybe")

    def test_unknown_key_rejected(self):
        doc = EvaluationResponse(status="ok").to_json()
        doc["extra"] = 1
        with pytest.raises(ReproError, match="version skew"):
            EvaluationResponse.from_json(doc)


class TestDeterministicPayload:
    """The contract the daemon's dedup/coalescing guarantees lean on:
    re-executing the same request yields bit-identical payloads."""

    def test_repeated_execution_is_bit_identical(self):
        from repro.serve import response_payload_bytes
        req = EvaluationRequest(workload="fib")
        first = execute(req)
        second = execute(req)
        assert first.ok, first.error
        assert response_payload_bytes(first.to_json()) == \
            response_payload_bytes(second.to_json())

    def test_payload_carries_no_wall_clock(self):
        req = EvaluationRequest(workload="fib", passes="localize")
        resp = execute(req)
        assert resp.ok
        assert "wall_s" in resp.meta          # meta has it...
        doc = resp.payload()                  # ...the payload doesn't
        assert "wall" not in json.dumps(doc)
        for entry in doc["evaluation"]["pass_log"]:
            assert set(entry) == {"name", "changed", "dN", "dE"}
