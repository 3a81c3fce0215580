"""Compiled-kernel artifact caching, node-kind coverage, hybrid plan.

Bit-identity of the compiled kernel itself is pinned by the
equivalence matrix (test_engine_equivalence) and the kernel
differential fuzz (tests/verify/test_kernel_differential); this file
covers the machinery around it: the per-fingerprint artifact cache,
a step compiler for every node kind, and the interpreted-task hybrid.
"""

import pytest

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


@pytest.fixture(autouse=True)
def _fresh_cache():
    simcompile.clear_cache()
    yield
    simcompile.clear_cache()


class TestArtifactCache:
    def test_object_identity_memo(self):
        _, circuit = _build()
        first = simcompile.compiled_for(circuit)
        assert simcompile.compiled_for(circuit) is first
        stats = simcompile.cache_stats()
        assert stats["memoized_objects"] == 1
        assert stats["entries"] == 1

    def test_fingerprint_cache_shared_across_equal_builds(self):
        # Two independent builds of the same workload/config hash to
        # the same fingerprint, so the second compile is a
        # cache hit returning the same artifact object.
        _, c1 = _build()
        _, c2 = _build()
        assert c1 is not c2
        assert simcompile.compiled_for(c1) is simcompile.compiled_for(c2)
        assert simcompile.cache_stats()["entries"] == 1

    def test_precompile_seeds_cache(self):
        from repro.core.serialize import circuit_fingerprint
        _, circuit = _build()
        fp = circuit_fingerprint(circuit)
        art = simcompile.precompile(circuit, fp)
        assert art.fingerprint == fp
        assert simcompile.compiled_for(circuit) is art

    def test_simulate_reuses_artifact_across_runs(self):
        w, circuit = _build("fib", "baseline")
        for _ in range(2):
            mem = w.fresh_memory()
            simulate(circuit, mem, list(w.args_for()),
                     SimParams(kernel="compiled"))
        assert simcompile.cache_stats()["entries"] == 1


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
        art = simcompile.compiled_for(circuit)
        flags = {name: t.interpreted for name, t in art.tasks.items()}
        assert any(flags.values()), f"no interpreted task in {flags}"
        assert not all(flags.values()), f"no compiled task in {flags}"
        for name, task in circuit.tasks.items():
            has_loop = any(n.kind == "loopctl"
                           for n in task.dataflow.nodes)
            assert art.tasks[name].interpreted == (not has_loop)
