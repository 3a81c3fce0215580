"""Node-level simulator tests on hand-built micro-dataflows."""

import pytest

from repro.core import AcceleratorCircuit, Cache, Junction, TaskBlock
from repro.core.nodes import (
    ComputeNode,
    ConstNode,
    LiveIn,
    LiveOut,
    LoadNode,
    LoopControl,
    PhiNode,
    SelectNode,
    StoreNode,
)
from repro.core.structures import Scratchpad
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Interpreter, Memory
from repro.sim import SimParams, simulate
from repro.types import BOOL, F32, I32

#: Programs whose translation serializes work, because each iteration
#: or call reads what the previous one wrote: (source, array seeded,
#: root argument, cycles).  The accumulator's loop keeps one iteration
#: in flight; the stage loop's call to its in-place child loop keeps
#: one invocation outstanding.
SERIALIZED = {
    "accumulator": ("""
array a: i32[16];
array x: i32[16];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[0] = a[0] + x[i]; }
}
""", "x", 16, 399),
    "in_place_stages": ("""
array a: i32[16];
func main(n: i32) {
  for (s = 0; s < n; s = s + 1) {
    for (k = 0; k < 16; k = k + 1) { a[k] = a[(k + 1) & 15] + s; }
  }
}
""", "a", 4, 423),
}


class _Mem:
    def __init__(self, words):
        self.words = words


def micro_circuit(build):
    """Build a 1-task circuit via ``build(task, df)``; returns it."""
    c = AcceleratorCircuit("micro")
    c.add_structure(Cache("l1", size_words=64))
    task = TaskBlock("main", "func")
    c.add_task(task)
    build(c, task, task.dataflow)
    return c


def run(circuit, args, words=None, **params):
    return simulate(circuit, _Mem(words or [0] * 64), args,
                    SimParams(validate=True, **params))


class TestComputeLatency:
    def _pipeline_circuit(self, ops):
        def build(c, task, df):
            task.live_in_types = [I32]
            task.live_out_types = [I32]
            li = df.add(LiveIn(0, I32))
            prev = li.out
            for i, op in enumerate(ops):
                node = df.add(ComputeNode(op, I32, name=f"n{i}"))
                df.connect(prev, node.in_ports[0])
                cn = df.add(ConstNode(1, I32, name=f"c{i}"))
                df.connect(cn.out, node.in_ports[1])
                prev = node.out
            lo = df.add(LiveOut(0, I32))
            df.connect(prev, lo.inp)
        return micro_circuit(build)

    def test_result_correct(self):
        c = self._pipeline_circuit(["add", "add", "add"])
        assert run(c, [5]).results == [8]

    def test_longer_chain_takes_longer(self):
        short = run(self._pipeline_circuit(["add"]), [1]).cycles
        long = run(self._pipeline_circuit(["add"] * 6), [1]).cycles
        assert long > short
        # Baseline: ~2 cycles per buffered hop.
        assert long - short >= 5

    def test_mul_latency_exceeds_add(self):
        add = run(self._pipeline_circuit(["add"]), [1]).cycles
        mul = run(self._pipeline_circuit(["mul"]), [1]).cycles
        assert mul > add


class TestSelectAndPredication:
    def test_select_chooses(self):
        def build(c, task, df):
            task.live_in_types = [I32]
            task.live_out_types = [I32]
            li = df.add(LiveIn(0, I32))
            cmp = df.add(ComputeNode("gt", BOOL, name="cmp",
                                     operand_types=[I32, I32]))
            zero = df.add(ConstNode(0, I32, name="z"))
            df.connect(li.out, cmp.in_ports[0])
            df.connect(zero.out, cmp.in_ports[1])
            sel = df.add(SelectNode(I32, name="sel"))
            a = df.add(ConstNode(100, I32, name="a"))
            b = df.add(ConstNode(200, I32, name="b"))
            df.connect(cmp.out, sel.cond)
            df.connect(a.out, sel.a)
            df.connect(b.out, sel.b)
            lo = df.add(LiveOut(0, I32))
            df.connect(sel.out, lo.inp)
        c = micro_circuit(build)
        assert run(c, [5]).results == [100]
        c = micro_circuit(build)
        assert run(c, [-5]).results == [200]

    def test_predicated_store_suppressed(self):
        def build(c, task, df):
            task.live_in_types = [I32]  # predicate as 0/1
            li = df.add(LiveIn(0, I32))
            addr = df.add(ConstNode(3, I32, name="addr"))
            data = df.add(ConstNode(42, I32, name="data"))
            st = df.add(StoreNode(I32, name="st"))
            df.connect(addr.out, st.addr)
            df.connect(data.out, st.data)
            df.connect(li.out, st.enable_predicate())
            j = Junction("j", c.default_cache)
            j.attach(st)
            task.add_junction(j)
        words = [0] * 64
        run(micro_circuit(build), [1], words)
        assert words[3] == 42
        words = [0] * 64
        run(micro_circuit(build), [0], words)
        assert words[3] == 0

    def test_predicated_load_returns_poison(self):
        def build(c, task, df):
            task.live_in_types = [I32]
            task.live_out_types = [F32]
            li = df.add(LiveIn(0, I32))
            addr = df.add(ConstNode(2, I32, name="addr"))
            ld = df.add(LoadNode(F32, name="ld"))
            df.connect(addr.out, ld.addr)
            df.connect(li.out, ld.enable_predicate())
            lo = df.add(LiveOut(0, F32))
            df.connect(ld.out, lo.inp)
            j = Junction("j", c.default_cache)
            j.attach(ld)
            task.add_junction(j)
        words = [0.0] * 64
        words[2] = 7.5
        assert run(micro_circuit(build), [1], words).results == [7.5]
        assert run(micro_circuit(build), [0],
                   list(words)).results == [0.0]


class TestLoopMachinery:
    def _sum_loop(self, stages=5):
        def build(c, task, df):
            task.kind = "loop"
            task.live_in_types = [I32]
            task.live_out_types = [I32]
            li = df.add(LiveIn(0, I32))
            ctl = df.add(LoopControl())
            ctl.pipeline_stages = stages
            z = df.add(ConstNode(0, I32, name="z"))
            one = df.add(ConstNode(1, I32, name="one"))
            df.connect(z.out, ctl.start, latched=True)
            df.connect(li.out, ctl.bound, latched=True)
            df.connect(one.out, ctl.step, latched=True)
            phi = df.add(PhiNode(I32, name="acc"))
            df.connect(z.out, phi.init, latched=True)
            add = df.add(ComputeNode("add", I32, name="add"))
            df.connect(phi.out, add.in_ports[0])
            df.connect(ctl.index, add.in_ports[1])
            df.connect(add.out, phi.back)
            lo = df.add(LiveOut(0, I32))
            df.connect(phi.final, lo.inp)
        return micro_circuit(build)

    def test_sum_reduction(self):
        assert run(self._sum_loop(), [6]).results == [15]

    def test_zero_trips_returns_init(self):
        assert run(self._sum_loop(), [0]).results == [0]

    def test_single_trip(self):
        assert run(self._sum_loop(), [1]).results == [0]

    def test_pipeline_stages_set_issue_interval(self):
        fast = run(self._sum_loop(stages=1), [32]).cycles
        slow = run(self._sum_loop(stages=8), [32]).cycles
        assert slow > fast + 32  # at least ~1 extra cycle/iteration

    def test_iteration_stats(self):
        result = run(self._sum_loop(), [10])
        assert result.stats.iterations["main"] == 10

    @pytest.mark.parametrize("kernel", ["compiled", "dense"])
    @pytest.mark.parametrize("case", sorted(SERIALIZED))
    def test_serialized_work_stays_serial(self, case, kernel):
        source, array, n, cycles = SERIALIZED[case]
        module = compile_minic(source)
        circuit = translate_module(module)
        nodes = [nd for t in circuit.tasks.values()
                 for nd in t.dataflow.nodes]
        assert any((nd.kind == "loopctl" and nd.max_in_flight == 1) or
                   (nd.kind == "call" and nd.serialize) for nd in nodes)
        values = [(i * 7 + 3) % 23 - 11 for i in range(16)]
        golden = Memory(module)
        golden.set_array(array, values)
        Interpreter(module, golden).run(n)
        mem = Memory(module)
        mem.set_array(array, values)
        result = simulate(circuit, mem, [n], SimParams(kernel=kernel))
        assert mem.words == golden.words
        assert result.cycles == cycles


class TestMemoryNodes:
    def _copy_loop(self):
        def build(c, task, df):
            spad = c.add_structure(Scratchpad("sp", size_words=64))
            task.kind = "loop"
            task.live_in_types = [I32]
            ctl = df.add(LoopControl())
            z = df.add(ConstNode(0, I32, name="z"))
            one = df.add(ConstNode(1, I32, name="one"))
            li = df.add(LiveIn(0, I32))
            df.connect(z.out, ctl.start, latched=True)
            df.connect(li.out, ctl.bound, latched=True)
            df.connect(one.out, ctl.step, latched=True)
            ld = df.add(LoadNode(I32, name="ld"))
            df.connect(ctl.index, ld.addr)
            st = df.add(StoreNode(I32, name="st"))
            base = df.add(ConstNode(32, I32, name="base"))
            addr = df.add(ComputeNode("add", I32, name="addr"))
            df.connect(base.out, addr.in_ports[0], latched=True)
            df.connect(ctl.index, addr.in_ports[1])
            df.connect(addr.out, st.addr)
            df.connect(ld.out, st.data)
            j = Junction("j", spad, issue_width=2)
            j.attach(ld)
            j.attach(st)
            task.add_junction(j)
        return micro_circuit(build)

    def test_copies_data(self):
        words = list(range(64))
        run(self._copy_loop(), [16], words)
        assert words[32:48] == list(range(16))

    def test_memory_stats(self):
        words = list(range(64))
        result = run(self._copy_loop(), [16], words)
        assert result.stats.memory_reads == 16
        assert result.stats.memory_writes == 16
