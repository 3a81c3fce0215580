"""Tests for the Pipeline/Evaluation facade (repro.api)."""

import pytest

from repro import (
    Evaluation,
    PassManager,
    Pipeline,
    SimParams,
    evaluate,
    simulate,
    synthesize,
    translate_module,
)
from repro.api import EvaluationRequest, execute, run_request
from repro.errors import ReproError, SimulationError
from repro.frontend.interp import Memory
from repro.opt import parse_passes
from repro.workloads import get_workload

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""


class TestConstruction:
    def test_workload_by_name(self):
        pipe = Pipeline("saxpy")
        assert pipe.workload is get_workload("saxpy")
        assert pipe.name == "saxpy"
        assert pipe.circuit.tasks

    def test_workload_object(self):
        w = get_workload("fib")
        assert Pipeline(w).workload is w

    def test_minic_source(self):
        pipe = Pipeline(SRC, name="mini")
        assert pipe.workload is None
        assert pipe.name == "mini"

    def test_module(self):
        module = Pipeline(SRC).module
        assert Pipeline(module).circuit.tasks

    def test_unknown_workload(self):
        with pytest.raises(ReproError, match="neither a known"):
            Pipeline("not_a_workload")

    def test_unknown_variant(self):
        with pytest.raises(ReproError, match="variant"):
            Pipeline("saxpy", variant="nope")

    def test_bad_type(self):
        with pytest.raises(ReproError, match="cannot build"):
            Pipeline(123)


class TestChain:
    def test_matches_handwired_flow(self):
        """The facade must reproduce the four-call pattern exactly."""
        spec = "localize,banking=4,fusion,tuning"
        ev = Pipeline("saxpy").optimize(spec).simulate().synthesize()

        w = get_workload("saxpy")
        circuit = translate_module(w.module("base"), name="saxpy")
        PassManager(parse_passes(spec)).run(circuit)
        sim = simulate(circuit, w.fresh_memory("base"),
                       list(w.args_for("base")), SimParams())
        synth = synthesize(circuit, name="saxpy")

        assert ev.cycles == sim.cycles
        assert ev.synth.alms == synth.alms
        assert ev.synth.fpga_mhz == synth.fpga_mhz
        assert ev.verified is True

    def test_evaluation_fields(self):
        ev = Pipeline("fib").simulate().synthesize()
        assert isinstance(ev, Evaluation)
        assert ev.workload == "fib"
        assert ev.variant == "base"
        assert ev.passes == ""
        assert ev.cycles > 0
        assert ev.time_us == ev.cycles / ev.synth.fpga_mhz
        assert ev.stats.kernel == "compiled"
        assert "cyc" in repr(ev)

    def test_to_json(self):
        doc = Pipeline("fib").simulate().synthesize().to_json()
        for key in ("name", "workload", "passes", "cycles", "stats",
                    "synth", "time_us", "verified"):
            assert key in doc
        assert doc["verified"] is True

    def test_pass_spec_accumulates(self):
        pipe = Pipeline("saxpy").optimize("localize")
        pipe.optimize("banking=4")
        assert pipe.pass_spec == \
            "memory_localization,scratchpad_banking=4"
        assert len(pipe.pass_log) == 2

    def test_instances_clear_spec(self):
        instance = parse_passes("fusion")[0]
        pipe = Pipeline("saxpy").optimize("localize")
        pipe.optimize(instance)
        assert pipe.pass_spec is None
        assert pipe.evaluation().passes is None

    def test_check_false_skips_verify(self):
        ev = Pipeline("saxpy").simulate(check=False).synthesize()
        assert ev.verified is None


class TestSourcePipelines:
    def test_verifies_against_interpreter(self):
        pipe = Pipeline(SRC, name="mini")
        mem = Memory(pipe.module)
        mem.set_array("x", [float(i) for i in range(16)])
        mem.set_array("y", [1.0] * 16)
        ev = pipe.simulate(args=[16, 2.0], memory=mem).synthesize()
        assert ev.verified is True
        assert mem.get_array("y") == [2.0 * i + 1.0 for i in range(16)]

    def test_optimized_source_still_verifies(self):
        pipe = Pipeline(SRC, name="mini").optimize(
            "localize,banking=2,fusion")
        mem = Memory(pipe.module)
        mem.set_array("x", [1.0] * 16)
        mem.set_array("y", [0.0] * 16)
        pipe.simulate(args=[16, 3.0], memory=mem)
        assert pipe.verified is True


class TestWorkloadArgs:
    # A workload run is checked against the interpreter on the run's
    # own args and input image, not the default-args golden image.
    def test_non_default_args_verify(self):
        resp = execute(EvaluationRequest(workload="saxpy",
                                         args=(256, 3.0)))
        assert resp.ok, resp.error
        assert resp.evaluation["verified"] is True

    def test_batch_lanes_with_different_args_verify(self):
        resp = execute(EvaluationRequest(
            workload="saxpy", args_list=[(256, 2.5), (256, 3.0)]))
        assert resp.ok, resp.error
        assert [doc["verified"] for doc in resp.lanes] == [True, True]


class TestFromCircuit:
    def test_wraps_existing_circuit(self):
        donor = Pipeline("saxpy").optimize("localize")
        pipe = Pipeline.from_circuit(donor.circuit, workload="saxpy")
        ev = pipe.simulate().synthesize()
        assert ev.verified is True
        assert ev.cycles == donor.simulate().sim.cycles
        # Construction is unknown from a bare circuit.
        assert ev.passes is None


class TestEvaluateConvenience:
    def test_one_call(self):
        ev = evaluate("saxpy", "localize,banking=4")
        assert ev.verified is True
        assert ev.passes == \
            "memory_localization,scratchpad_banking=4"
        baseline = evaluate("saxpy")
        assert ev.cycles < baseline.cycles


class TestDefaultKernel:
    @pytest.mark.parametrize("workload,passes", [
        ("fib", ""), ("saxpy", "localize,banking=4,fusion,tuning")])
    def test_default_is_compiled_and_matches_dense(self, workload,
                                                   passes):
        default = EvaluationRequest(workload=workload, passes=passes)
        dense = EvaluationRequest(workload=workload, passes=passes,
                                  sim={"kernel": "dense"})
        a, b = execute(default), execute(dense)
        assert a.ok and b.ok
        assert a.evaluation == b.evaluation
        doc_a = run_request(default)[1].stats.to_json()
        doc_b = run_request(dense)[1].stats.to_json()
        assert doc_a.pop("kernel") == "compiled"
        assert doc_b.pop("kernel") == "dense"
        # Only the compiled kernel attributes stalls.
        for key in ("stall_cycles", "node_stalls", "source_stalls"):
            assert doc_a.pop(key) and not doc_b.pop(key)
        assert doc_a == doc_b

    def test_event_kernel_is_refused(self):
        # The event kernel is gone and nothing maps its name to
        # another kernel: SimParams and requests naming it fail with
        # the unknown-kernel error.
        w = get_workload("fib")
        circuit = translate_module(w.module())
        with pytest.raises(SimulationError,
                           match="unknown simulation kernel 'event'"):
            simulate(circuit, w.fresh_memory(), list(w.args_for()),
                     SimParams(kernel="event"))
        resp = execute(EvaluationRequest(workload="fib",
                                         sim={"kernel": "event"}))
        assert not resp.ok
        assert resp.error["error"] == "SimulationError"
        assert "unknown simulation kernel 'event'" in \
            resp.error["message"]
