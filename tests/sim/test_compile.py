"""Compiled-kernel plan per run, node-kind coverage, recycled steps.

Bit-identity of the compiled kernel itself is pinned by the
equivalence matrix (test_engine_equivalence) and the kernel
differential fuzz (tests/verify/test_kernel_differential); this file
covers the machinery around it: a plan built from the circuit as it
is at each run, a step compiler for every node kind, and pooled
instances that keep the steps bound when they were built.
"""

from collections import Counter

import pytest

from repro.api import Pipeline
from repro.bench.configs import all_opts_for
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Interpreter, Memory
from repro.opt import OpFusion, ParameterTuning, TaskPipelining
from repro.opt.pass_manager import PassManager
from repro.sim import SimParams, simulate
from repro.sim import compile as simcompile
from repro.sim.nodesim import SIM_CLASSES
from repro.sim.task import DataflowInstance
from repro.workloads import WORKLOADS


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
