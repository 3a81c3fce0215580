"""Compiled-kernel plan per run, node-kind coverage, hybrid plan.

Bit-identity of the compiled kernel itself is pinned by the
equivalence matrix (test_engine_equivalence) and the kernel
differential fuzz (tests/verify/test_kernel_differential); this file
covers the machinery around it: a plan built from the circuit as it
is at each run, a step compiler for every node kind, and the
interpreted-task hybrid.
"""

import pytest

from repro.api import Pipeline
from repro.bench.configs import all_opts_for
from repro.frontend import translate_module
from repro.opt.pass_manager import PassManager
from repro.sim import SimParams, simulate
from repro.sim import compile as simcompile
from repro.sim.nodesim import SIM_CLASSES
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
        # compiled kernel needs no event-kernel fallback.
        assert set(simcompile._STEP_COMPILERS) == set(SIM_CLASSES)


class TestHybridPlan:
    def test_short_lived_tasks_stay_interpreted(self):
        # saxpy/allopts has both flavors: loop-header tasks (loopctl,
        # thousands of sweeps per instance -> compiled) and a
        # parallel_for body (no loopctl, hundreds of short-lived
        # instances -> interpreted).
        _, circuit = _build("saxpy", "allopts")
        plan = simcompile.compile_circuit(circuit)
        flags = {name: t.interpreted for name, t in plan.items()}
        assert any(flags.values()), f"no interpreted task in {flags}"
        assert not all(flags.values()), f"no compiled task in {flags}"
        for name, task in circuit.tasks.items():
            has_loop = any(n.kind == "loopctl"
                           for n in task.dataflow.nodes)
            assert plan[name].interpreted == (not has_loop)
