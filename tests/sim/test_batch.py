"""Batched simulation: lane identity, deopt, and error isolation.

The batched driver's contract is the repo's usual one — per-lane
results and memory bit-identical to N independent dense-kernel runs —
plus its own machinery: uniform-control vectorization with deopt on
lane-divergent control, the enforced scalar fallback under fault
plans, per-lane failure isolation with batch-aware error documents,
and lane math that stays one pure-Python loop (no array library).
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.core.lanes import LaneValues, lane_fingerprint
from repro.errors import LaneDivergence, SimulationTimeout
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Memory
from repro.sim import SimParams, simulate, simulate_batch
from repro.sim.faults import FaultPlan
from repro.sim.stats import SimStats
from repro.workloads import WORKLOADS

FAST_MATRIX = ["saxpy", "stencil", "fib", "dense8", "softm8", "relu_t"]
SLOW_MATRIX = [name for name in WORKLOADS if name not in FAST_MATRIX]
full_matrix = pytest.mark.skipif(
    not os.environ.get("RUN_FULL_MATRIX"),
    reason="set RUN_FULL_MATRIX=1 to run the full workload matrix")


def _perturb_floats(mem, rng) -> None:
    """Type-preserving per-lane input variation.  Floats only: integer
    words may be loop bounds or index-array entries, and corrupting
    those breaks the *workload*, not the batching."""
    for i, v in enumerate(mem.words):
        if type(v) is float and rng.random() < 0.4:
            mem.words[i] = float(rng.randrange(-50, 50))


def _lanes_for(name: str, n: int, seed: int = 7):
    w = WORKLOADS[name]
    rng = random.Random(seed)
    lanes = []
    for _ in range(n):
        mem = w.fresh_memory()
        _perturb_floats(mem, rng)
        lanes.append(mem)
    return lanes


def _check_identity(name: str, n: int, kernel: str = "compiled",
                    expect_mode: str = "vectorized") -> None:
    """Batch of N vs N independent dense-kernel runs, bit-for-bit."""
    w = WORKLOADS[name]
    circuit = translate_module(w.module(), name=f"{name}_batch")
    args = list(w.args_for())
    lanes = _lanes_for(name, n)
    refs = []
    for mem in lanes:
        ref_mem = w.fresh_memory()
        ref_mem.words[:] = mem.words
        result = simulate(circuit, ref_mem, args,
                          SimParams(kernel="dense"))
        refs.append((result.cycles, list(result.results),
                     list(ref_mem.words)))
    batch = simulate_batch(circuit, lanes, [args] * n,
                           SimParams(kernel=kernel))
    assert batch.ok, batch.errors
    assert batch.mode == expect_mode
    for i in range(n):
        assert batch.results[i].cycles == refs[i][0], f"lane {i} cycles"
        assert list(batch.results[i].results) == refs[i][1], \
            f"lane {i} results"
        assert lanes[i].words == refs[i][2], f"lane {i} memory"


class TestLaneIdentity:
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_batched_matches_independent_runs(self, name):
        _check_identity(name, 4)

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_batched_matches_independent_runs_slow(self, name):
        _check_identity(name, 4)

    def test_dense_kernel_runs_lanes_sequentially(self):
        _check_identity("saxpy", 4, kernel="dense",
                        expect_mode="sequential")

    def test_single_lane_goes_sequential(self):
        _check_identity("saxpy", 1, expect_mode="sequential")

    def test_twelve_lane_gemm_matches_independent_runs(self):
        _check_identity("gemm", 12)

    def test_lane_math_never_imports_numpy(self):
        # A 16-lane compiled batch runs in a fresh interpreter:
        # importing an array library there would grow every daemon
        # worker by 10-14 MB, so the lane loop must not pull one in.
        code = textwrap.dedent("""
            import random, sys
            from repro.frontend import translate_module
            from repro.sim import SimParams, simulate_batch
            from repro.workloads import WORKLOADS
            w = WORKLOADS["gemm"]
            circuit = translate_module(w.module(), name="gemm_batch")
            rng = random.Random(7)
            lanes = []
            for _ in range(16):
                mem = w.fresh_memory()
                for i, v in enumerate(mem.words):
                    if type(v) is float and rng.random() < 0.4:
                        mem.words[i] = float(rng.randrange(-50, 50))
                lanes.append(mem)
            batch = simulate_batch(circuit, lanes,
                                   [list(w.args_for())] * 16,
                                   SimParams(kernel="compiled",
                                             batch=16))
            assert batch.ok and batch.mode == "vectorized", batch.mode
            print("numpy" in sys.modules)
        """)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestControlDivergence:
    def test_divergent_control_deopts_and_stays_identical(self):
        # Per-lane trip counts differ -> the loop bound is
        # lane-divergent control -> the vectorized attempt must deopt,
        # and the sequential re-run must still be bit-identical.
        source = """
array out: i32[4];
func main(n: i32) {
  var s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + i;
  }
  out[0] = s;
}
"""
        module = compile_minic(source, filename="diverge.mc")
        circuit = translate_module(module, name="diverge")
        args_lanes = [[3], [5], [9]]
        refs = []
        for a in args_lanes:
            mem = Memory(module)
            result = simulate(circuit, mem, a, SimParams(kernel="dense"))
            refs.append((result.cycles, list(mem.words)))
        lanes = [Memory(module) for _ in args_lanes]
        batch = simulate_batch(circuit, lanes, args_lanes,
                               SimParams(kernel="compiled"))
        assert batch.mode == "deopt"
        assert batch.deopt["error"] == "LaneDivergence"
        assert batch.ok
        for i, (cycles, words) in enumerate(refs):
            assert batch.results[i].cycles == cycles
            assert lanes[i].words == words

    def test_divergent_payload_stays_vectorized(self):
        # Divergent *data* (not control) must not deopt.
        source = """
array out: i32[4];
func main(a: i32) {
  out[0] = a * a + 1;
}
"""
        module = compile_minic(source, filename="payload.mc")
        circuit = translate_module(module, name="payload")
        lanes = [Memory(module) for _ in range(3)]
        batch = simulate_batch(circuit, lanes, [[2], [5], [11]],
                               SimParams(kernel="compiled"))
        assert batch.mode == "vectorized"
        assert [m.words[0] for m in lanes] == [5, 26, 122]

    def test_lane_values_bool_raises_on_divergence(self):
        with pytest.raises(LaneDivergence):
            bool(LaneValues([True, False, True]))
        assert bool(LaneValues([True, True])) is True
        # True vs 1 is a *class* divergence: repr-identity would break.
        with pytest.raises(LaneDivergence):
            int(LaneValues([True, 1]))


class TestErrorIsolation:
    def test_failed_lane_reports_index_and_fingerprint(self):
        # Lane 1 divides by zero; lanes 0 and 2 must complete and the
        # error document must carry the lane index and its input
        # fingerprint.
        source = """
array out: i32[4];
func main(a: i32, b: i32) {
  out[0] = a / b;
}
"""
        module = compile_minic(source, filename="divz.mc")
        circuit = translate_module(module, name="divz")
        args_lanes = [[8, 2], [8, 0], [9, 3]]
        lanes = [Memory(module) for _ in args_lanes]
        before = list(lanes[1].words)
        batch = simulate_batch(circuit, lanes, args_lanes,
                               SimParams(kernel="compiled"))
        assert not batch.ok
        assert batch.results[0] is not None and lanes[0].words[0] == 4
        assert batch.results[2] is not None and lanes[2].words[0] == 3
        err = batch.errors[1]
        assert batch.results[1] is None
        assert err["lane"] == 1
        assert err["error"] == "SimulationError"
        assert err["input_fingerprint"] == \
            lane_fingerprint(args_lanes[1], before)
        assert batch.errors[0] is None and batch.errors[2] is None

    def test_identical_failing_lanes_run_once(self, monkeypatch):
        # Lanes with the same args and input image fail the same way:
        # the vectorized attempt's error is every lane's, with no
        # sequential re-runs.
        from repro.sim.engine import Simulator
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_timeout")
        args = list(w.args_for())
        params = SimParams(kernel="compiled", max_cycles=50)
        with pytest.raises(SimulationTimeout) as scalar:
            simulate(circuit, w.fresh_memory(), args, params)
        runs = []
        real = Simulator._run_kernel

        def counting(self, *a, **kw):
            runs.append(1)
            return real(self, *a, **kw)

        monkeypatch.setattr(Simulator, "_run_kernel", counting)
        lanes = [w.fresh_memory() for _ in range(3)]
        before = list(lanes[0].words)
        batch = simulate_batch(circuit, lanes, [args] * 3, params)
        assert len(runs) == 1
        assert batch.results == [None, None, None]
        for i, err in enumerate(batch.errors):
            assert err["error"] == "SimulationTimeout"
            assert err["message"] == str(scalar.value)
            assert err["exit_code"] == 6
            assert err["lane"] == i
            assert err["input_fingerprint"] == \
                lane_fingerprint(args, before)

    def test_fault_plan_forces_sequential(self):
        # Satellite policy: an active fault plan runs lanes scalar
        # (per-lane LI identity is the fuzzer's job; the driver's job
        # is to never vectorize under faults).
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_faults")
        lanes = [w.fresh_memory() for _ in range(3)]
        plan = FaultPlan.generate(1)
        batch = simulate_batch(circuit, lanes,
                               [list(w.args_for())] * 3,
                               SimParams(kernel="compiled",
                                         faults=plan))
        assert batch.mode == "sequential"
        assert batch.ok
        w.verify(lanes[0])


class TestBatchStats:
    def test_stats_round_trip_with_batch(self):
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_stats")
        lanes = [w.fresh_memory() for _ in range(3)]
        batch = simulate_batch(circuit, lanes,
                               [list(w.args_for())] * 3,
                               SimParams(kernel="compiled"))
        doc = batch.stats.to_json()
        assert doc["batch"] == {"lanes": 3, "mode": "vectorized",
                                "lane_cycles": batch.stats.lane_cycles}
        back = SimStats.from_json(doc)
        assert back.batch_lanes == 3
        assert back.batch_mode == "vectorized"
        assert back.lane_cycles == batch.stats.lane_cycles

    def test_scalar_stats_document_unchanged(self):
        # The v3 round-trip must not grow a "batch" key on scalar runs.
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_scalar")
        mem = w.fresh_memory()
        result = simulate(circuit, mem, list(w.args_for()), SimParams())
        doc = result.stats.to_json()
        assert "batch" not in doc
        assert SimStats.from_json(doc).batch_lanes == 0

    def test_merged_aggregates(self):
        a, b = SimStats(), SimStats()
        a.cycles, b.cycles = 10, 25
        a.memory_reads, b.memory_reads = 3, 4
        a.invocations["main"] = 1
        b.invocations["main"] = 2
        merged = SimStats.merged([a, b])
        assert merged.cycles == 25
        assert merged.memory_reads == 7
        assert merged.invocations["main"] == 3
        assert SimStats.merged([]).cycles == 0


class TestEvaluateMany:
    def test_pipeline_evaluate_many_verifies_lanes(self):
        from repro import Pipeline
        pipe = Pipeline("saxpy")
        batch = pipe.evaluate_many(
            params=SimParams(kernel="compiled", batch=3))
        assert batch.ok
        assert batch.verified == [True, True, True]
        assert batch.mode == "vectorized"

    def test_module_pipeline_per_lane_args(self):
        from repro import Pipeline
        source = """
array out: i32[4];
func main(a: i32, b: i32) {
  out[0] = a * b + 1;
}
"""
        pipe = Pipeline(source, name="mul")
        batch = pipe.evaluate_many([[2, 3], [4, 5], [6, 7]],
                                   SimParams(kernel="compiled"))
        assert batch.ok and batch.verified == [True, True, True]
        assert batch.mode == "vectorized"
