"""Compiled-kernel plan per run, node-kind coverage, recycled steps.

Bit-identity of the compiled kernel itself is pinned by the
equivalence matrix (test_engine_equivalence) and the kernel
differential fuzz (tests/verify/test_kernel_differential); this file
covers the machinery around it: a plan built from the circuit as it
is at each run, a step compiler for every node kind, pooled
instances that keep the steps bound when they were built, and the
generic function-unit steps that no benchmark workload runs hot.
"""

from collections import Counter

import pytest

from repro.api import Pipeline
from repro.bench.configs import all_opts_for
from repro.core.nodes import ComputeNode, FusedComputeNode
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Interpreter, Memory
from repro.opt import OpFusion, ParameterTuning, TaskPipelining
from repro.opt.pass_manager import PassManager
from repro.sim import SimParams, simulate, simulate_batch
from repro.sim import compile as simcompile
from repro.sim.faults import FaultPlan
from repro.sim.nodesim import SIM_CLASSES
from repro.sim.task import DataflowInstance
from repro.workloads import WORKLOADS
from tests.conftest import UNSHARED_STATS


def _build(name="saxpy", config="allopts"):
    w = WORKLOADS[name]
    passes = [] if config == "baseline" else all_opts_for(name)
    circuit = translate_module(w.module(), name=f"{name}_{config}")
    PassManager(list(passes)).run(circuit)
    return w, circuit


class TestPlanPerRun:
    @pytest.mark.parametrize("name", ["gemm", "stencil", "spmv"])
    def test_optimize_after_simulate_matches_fresh_build(self, name):
        # A pass rewrites the circuit in place after a run; the next
        # run must simulate the circuit as it is now.
        reused = Pipeline(name).simulate(kernel="compiled")
        reused.optimize("fusion").simulate(kernel="compiled")
        fresh = Pipeline(name).optimize("fusion") \
            .simulate(kernel="compiled")
        assert reused.sim.cycles == fresh.sim.cycles
        assert reused.memory.words == fresh.memory.words
        assert reused.sim.results == fresh.sim.results
        assert reused.verified is fresh.verified is True

    def test_simulate_hashes_no_circuit(self, hashed_circuits):
        w, circuit = _build("fib", "baseline")
        simulate(circuit, w.fresh_memory(), list(w.args_for()),
                 SimParams(kernel="compiled"))
        assert hashed_circuits == []


class TestCoverage:
    def test_every_node_kind_has_a_step_compiler(self):
        # Every circuit the simulator accepts compiles, so the
        # compiled kernel needs no fallback to the node sims' tick.
        assert set(simcompile._STEP_COMPILERS) == set(SIM_CLASSES)


#: Steps that read per-invocation state: the body's live-in ``i``, a
#: divide (II 4, so the FU keeps an issue cursor) and a call to a
#: helper whose ``while`` loop is a conditional loop (its phis keep an
#: emission history).  Forty ``parallel_for`` bodies and helper calls
#: run a few at a time, so the compiled kernel recycles instances of
#: each of those tasks.
RECYCLE_SRC = """
array inp: i32[16];
array out: i32[64];
func g(v: i32) -> i32 {
  var s: i32 = 0;
  var k: i32 = v;
  while (s < 60) { s = s + (inp[k & 15] & 15) + 1; k = k + 1; }
  return s + k;
}
func main(n: i32) {
  parallel_for (i = 0; i < n; i = i + 1) {
    out[i] = (inp[i & 15] * 7 + i) / (i + 1) + g(i);
  }
}
"""
RECYCLE_INP = [(i * 37 + 11) % 89 - 30 for i in range(16)]


class TestRecycledInstances:
    def _memory(self, module):
        mem = Memory(module)
        mem.set_array("inp", RECYCLE_INP)
        return mem

    @pytest.mark.parametrize("passes", [
        [], [OpFusion(), TaskPipelining(), ParameterTuning()]],
        ids=["baseline", "optimized"])
    def test_recycled_steps_match_references(self, passes, monkeypatch):
        module = compile_minic(RECYCLE_SRC)
        golden = self._memory(module)
        Interpreter(module, golden).run(40)
        circuit = translate_module(module)
        PassManager(list(passes)).run(circuit)
        recycled = Counter()
        recycle = DataflowInstance.recycle

        def counting(inst, invocation):
            recycled[inst.task.name] += 1
            recycle(inst, invocation)

        monkeypatch.setattr(DataflowInstance, "recycle", counting)
        runs = {}
        for kernel in ("dense", "compiled"):
            mem = self._memory(module)
            res = simulate(circuit, mem, [40], SimParams(kernel=kernel))
            runs[kernel] = (res.cycles, list(res.results), mem.words)
        assert runs["compiled"] == runs["dense"]
        assert runs["compiled"][2] == golden.words
        # Only the compiled run pools.  The body, the helper and the
        # helper's loop each run 40 times.
        many = [t for t, n in res.stats.invocations.items() if n == 40]
        assert len(many) == 3, res.stats.invocations
        assert all(recycled[t] >= 5 for t in many), recycled


#: A loop with one-input function units, which bind ``generic_step``:
#: a negation (combinational), an int to float conversion (II 1) and
#: a square root (II 6).  The conditional assignment becomes a select
#: node; :func:`_generic_circuit` adds the other generic shapes.
GENERIC_SRC = """
array inp: i32[16];
array outi: i32[64];
array outf: f32[64];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) {
    var x: i32 = inp[i & 15];
    var m: i32 = x * 3;
    if (x > 0) { m = x - 7; }
    outi[i] = -x + m;
    outf[i] = sqrt(f32(x * x + 1));
  }
}
"""
GENERIC_TRIP = 20

#: Lengthens every function unit, fused regions included.
FU_FAULTS = FaultPlan(seed=5, fu_rate=1.0, fu_latency_max=3)


def _feed_like(df, node, copy):
    """Add ``copy`` to ``df``, fed from ``node``'s input sources over
    edges like ``node``'s, with no consumer of its own."""
    df.add(copy)
    for port, dst in zip(node.inputs, copy.inputs):
        conn = port.incoming
        df.connect(conn.src, dst, buffered=conn.buffered,
                   depth=conn.depth, latched=conn.latched)


def _generic_circuit(module, fused):
    """The loop task, edited so that it holds the FU shapes a
    translated circuit never does.  Baseline: the select's consumers
    move to a three-input ``select`` compute node, which leaves the
    select node with no consumer, and a copy of the multiply consumes
    nothing.  Fused: a copy of a fused region consumes nothing."""
    circuit = translate_module(module)
    if fused:
        PassManager([OpFusion()]).run(circuit)
    task = next(t for t in circuit.tasks.values() if t.kind == "loop")
    df = task.dataflow
    if fused:
        region = df.nodes_of_kind("fused")[0]
        _feed_like(df, region, FusedComputeNode(
            "dead_fused", [p.type for p in region.in_ports],
            region.out.type, region.exprs))
        return circuit
    sel = df.nodes_of_kind("select")[0]
    mux = ComputeNode("select", sel.out.type, name="mux",
                      operand_types=[p.type for p in sel.inputs])
    _feed_like(df, sel, mux)
    df.rewire_output(sel.out, mux.out)
    mul = next(n for n in df.nodes_of_kind("compute") if n.op == "mul")
    _feed_like(df, mul, ComputeNode(
        "mul", mul.out.type, name="dead_mul",
        operand_types=[p.type for p in mul.in_ports]))
    return circuit


def _generic_memory(module, seed=0):
    mem = Memory(module)
    mem.set_array("inp", [(i * 37 + 11 + seed * 13) % 89 - 30
                          for i in range(16)])
    return mem


def _fast_path(node, faults):
    """Whether ``node`` should bind an unrolled step."""
    if not node.out.outgoing:
        return False
    if node.kind == "compute":
        return len(node.in_ports) == 2
    return faults is None     # fused: combinational only


class TestGenericSteps:
    """Every FU shape that binds ``generic_step`` (and select, whose
    one step takes both shapes) against the dense sweep: cycles,
    results, memory and the stats document apart from
    :data:`UNSHARED_STATS`, fault-free and with every FU lengthened."""

    @pytest.mark.parametrize("faults", [None, FU_FAULTS],
                             ids=["fault_free", "fu_faults"])
    @pytest.mark.parametrize("fused", [False, True],
                             ids=["baseline", "fused"])
    def test_generic_steps_match_dense(self, fused, faults, monkeypatch):
        module = compile_minic(GENERIC_SRC)
        golden = _generic_memory(module)
        Interpreter(module, golden).run(GENERIC_TRIP)
        circuit = _generic_circuit(module, fused)
        bound = {}
        bind = simcompile.CompiledTask.bind

        def recording(self, instance):
            steps = bind(self, instance)
            for sim, step in zip(instance.node_sims, steps):
                bound[sim.node] = step.__name__
            return steps

        monkeypatch.setattr(simcompile.CompiledTask, "bind", recording)
        runs = {}
        for kernel in ("dense", "compiled"):
            mem = _generic_memory(module)
            res = simulate(circuit, mem, [GENERIC_TRIP],
                           SimParams(kernel=kernel, faults=faults))
            doc = res.stats.to_json()
            for key in UNSHARED_STATS:
                doc.pop(key)
            runs[kernel] = (res.cycles, list(res.results), doc,
                            mem.words)
        assert runs["compiled"] == runs["dense"]
        assert runs["compiled"][3] == golden.words

        fus = {n: name for n, name in bound.items()
               if n.kind in ("compute", "fused")}
        for node, name in fus.items():
            want = "step" if _fast_path(node, faults) else "generic_step"
            assert name == want, (node.name, node.kind)
        generic = [n for n, name in fus.items() if name == "generic_step"]
        if fused:
            assert "dead_fused" in {n.name for n in generic}
        else:
            assert {"neg", "itof", "sqrt", "select"} <= \
                {n.op for n in generic}
            assert "dead_mul" in {n.name for n in generic}
            assert any(n.kind == "select" and not n.out.outgoing
                       for n in bound)

    @pytest.mark.parametrize("fused", [False, True],
                             ids=["baseline", "fused"])
    def test_generic_steps_in_a_batch_match_each_lane(self, fused):
        module = compile_minic(GENERIC_SRC)
        circuit = _generic_circuit(module, fused)
        refs = []
        for lane in range(3):
            mem = _generic_memory(module, lane)
            res = simulate(circuit, mem, [GENERIC_TRIP])
            refs.append((res.cycles, list(res.results), mem.words))
        lanes = [_generic_memory(module, lane) for lane in range(3)]
        batch = simulate_batch(circuit, lanes, [[GENERIC_TRIP]] * 3)
        assert batch.mode == "vectorized"
        assert [(r.cycles, list(r.results), m.words)
                for r, m in zip(batch.results, lanes)] == refs
