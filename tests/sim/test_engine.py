"""End-to-end simulator behavior tests."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Memory
from repro.sim import SimParams, Simulator, simulate

from tests.conftest import assert_equivalent


class TestBasicExecution:
    def test_returns_root_liveouts(self):
        module = compile_minic(
            "func main(n: i32) -> i32 { return n * 3; }")
        circuit = translate_module(module)
        result = simulate(circuit, Memory(module), [7])
        assert result.results == [21]

    def test_cycles_positive_and_stats(self, saxpy_source, saxpy_init):
        module = compile_minic(saxpy_source)
        circuit = translate_module(module)
        mem = Memory(module)
        saxpy_init(mem)
        result = simulate(circuit, mem, [16, 2.0])
        assert result.cycles > 16
        assert result.stats.memory_reads == 32
        assert result.stats.memory_writes == 16
        assert result.stats.iterations

    def test_deterministic(self, saxpy_source, saxpy_init):
        def once():
            module = compile_minic(saxpy_source)
            circuit = translate_module(module)
            mem = Memory(module)
            saxpy_init(mem)
            return simulate(circuit, mem, [16, 2.0]).cycles
        assert once() == once()

    def test_wrong_root_arity(self):
        module = compile_minic("func main(n: i32) { }")
        circuit = translate_module(module)
        with pytest.raises(SimulationError):
            simulate(circuit, Memory(module), [])

    def test_removed_trace_kernel_rejected(self, saxpy_source):
        module = compile_minic(saxpy_source)
        circuit = translate_module(module)
        with pytest.raises(SimulationError,
                           match="unknown simulation kernel 'trace'"):
            simulate(circuit, Memory(module), [16, 2.0],
                     SimParams(kernel="trace"))

    def test_max_cycles_guard(self, saxpy_source, saxpy_init):
        module = compile_minic(saxpy_source)
        circuit = translate_module(module)
        mem = Memory(module)
        saxpy_init(mem)
        with pytest.raises(SimulationError):
            simulate(circuit, mem, [16, 2.0],
                     SimParams(max_cycles=10))

    def test_deadlock_detection(self):
        # An unconnected liveout can never be satisfied.
        from repro.core import AcceleratorCircuit, Cache, TaskBlock
        from repro.core.nodes import LiveIn, LiveOut
        from repro.types import I32
        c = AcceleratorCircuit("dead")
        c.add_structure(Cache("l1"))
        t = TaskBlock("main", "func")
        t.live_in_types = [I32]
        t.live_out_types = [I32]
        t.dataflow.add(LiveIn(0, I32))
        lo = t.dataflow.add(LiveOut(0, I32))
        c.add_task(t)
        with pytest.raises((DeadlockError, Exception)):
            simulate(c, _FakeMemory(), [1],
                     SimParams(deadlock_window=50, validate=False))


class _FakeMemory:
    words = [0] * 16


class TestExecutionModelPhenomena:
    def test_pipelining_beats_serial_sum(self):
        # 2N independent iterations take far less than 2N * latency.
        source = """
array a: f32[64];
array b: f32[64];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * 2.0 + 1.0; }
}
"""
        module = compile_minic(source)
        circuit = translate_module(module)
        mem = Memory(module)
        mem.set_array("a", [1.0] * 64)
        result = simulate(circuit, mem, [64])
        # Unpipelined latency would be > 20 cycles per iteration.
        assert result.cycles < 64 * 15

    def test_independent_loops_overlap(self):
        # Two independent loops run concurrently: the pair costs less
        # than twice one loop.
        one = """
array a: f32[32];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = 1.0; }
}
"""
        two = """
array a: f32[32];
array b: f32[32];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = 1.0; }
  for (j = 0; j < n; j = j + 1) { b[j] = 2.0; }
}
"""
        def cycles(src):
            module = compile_minic(src)
            circuit = translate_module(module)
            return simulate(circuit, Memory(module), [32]).cycles
        assert cycles(two) < 2 * cycles(one) * 0.85

    def test_dependent_loops_serialize(self):
        # A loop reading the previous loop's output must wait for it.
        source = """
array a: f32[32];
array b: f32[32];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = 2.0; }
  for (j = 0; j < n; j = j + 1) { b[j] = a[j] + 1.0; }
}
"""
        golden, mem, _ = __import__("tests.conftest",
                                    fromlist=["run_both"]).run_both(
            source, [32])
        assert mem.get_array("b") == [3.0] * 32

    def test_queue_depth_throttles_parent(self):
        # Shallow task queues couple the parent to the child's rate.
        source = """
array a: f32[64];
func main(n: i32) {
  parallel_for (i = 0; i < n; i = i + 1) { a[i] = f32(i) * 2.0; }
}
"""
        module = compile_minic(source)

        def run(depth):
            circuit = translate_module(module)
            for edge in circuit.task_edges:
                edge.queue_depth = depth
            mem = Memory(module)
            return simulate(circuit, mem, [64]).cycles

        assert run(16) <= run(1)


class TestPredicationEffects:
    def test_predicated_off_store_suppressed(self):
        assert_equivalent("""
array a: i32[8];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) {
    if (i == 3) { a[i] = 99; }
  }
}
""", [8])

    def test_poisoned_load_value_never_used(self):
        # a[i-1] under predicate i>0: the poisoned lane must not leak.
        assert_equivalent("""
array a: i32[8];
array b: i32[8];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) {
    var v: i32 = 0;
    if (i > 0) { v = a[i - 1]; }
    b[i] = v;
  }
}
""", [8], init=lambda m: m.set_array("a", [5] * 8))

    def test_predicated_recursive_call(self):
        assert_equivalent("""
array o: i32[1];
func f(n: i32) -> i32 {
  if (n < 1) { return 0; }
  return n + f(n - 1);
}
func main(n: i32) { o[0] = f(n); }
""", [5])
