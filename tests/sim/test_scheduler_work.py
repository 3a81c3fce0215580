"""Exact scheduler work on the eval-sim kernels, and the stall
attribution a failed run ships.

The counts are simulator events — block visits, instance sweeps,
classified sleep episodes, instance builds, recycles and binds, node
steps — not Python calls, so they are the same on every Python
version.  A change that makes the scheduler visit more blocks, sweep
more instances or step more nodes per simulated cycle moves them.
"""

import json
from collections import Counter

import pytest

from repro.bench.configs import all_opts_for
from repro.core import SourceLoc
from repro.errors import SimulationTimeout
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Memory
from repro.opt.pass_manager import PassManager
from repro.sim import SimParams, simulate
from repro.sim.compile import CompiledTask
from repro.sim.nodesim import SIM_CLASSES, NodeSim
from repro.sim.observe import Observability
from repro.sim.task import DataflowInstance, SimRuntime, TaskBlockSim
from repro.workloads import WORKLOADS

#: Per eval-sim kernel (all-opts, compiled kernel): simulated cycles,
#: block visits, instance sweeps, classified sleep episodes, instance
#: builds, instance recycles, node steps and the steps that act
#: (change ``_act``).  Only blocks with work are visited, and a node
#: steps only when an event can change one of its guards: 69,341
#: steps over 7,495 cycles, 47,684 of them acting, against 106,614
#: steps, 17,036 sweeps and 7,855 visits when a pop woke the producer
#: every time, loads and stores re-armed after every action, and a
#: child's answer, an unpark or a loop finish woke every node (and
#: 25,242 visits when every block was visited every cycle).  Sleep
#: episodes rose 2,299 -> 2,399: an instance no longer woken for
#: nothing sleeps through those cycles.  Every instance binds its
#: steps once, when it is built, so binds equal builds.
WORK = {
    "gemm": (1934, 2793, 4667, 553, 12, 62, 11977, 8105),
    "fft": (1658, 1683, 1683, 52, 3, 5, 14824, 11562),
    "saxpy": (3080, 2127, 4573, 1460, 6, 252, 8533, 4913),
    "stencil": (261, 325, 1183, 111, 20, 2, 8434, 5878),
    "img_scale": (562, 674, 3836, 223, 26, 8, 25573, 17226),
}


def _allopts(name):
    w = WORKLOADS[name]
    circuit = translate_module(w.module(), name=f"{name}_allopts")
    PassManager(all_opts_for(name)).run(circuit)
    return w, circuit


def _counted_step(step, instance, counts):
    def counted(now):
        act = instance._act
        step(now)
        counts["steps"] += 1
        if instance._act != act:
            counts["acting"] += 1

    return counted


@pytest.fixture
def work(monkeypatch):
    """Counts of scheduler events, of compiled node steps (all, and
    those that act), of function units bound to a ``generic_step``
    (the slow path of the shapes no benchmark workload runs hot), of
    the dense kernel's acting node-cycles (a fork drain plus ``tick``
    that changes ``_act``), and of ``SourceLoc.label`` calls in total
    and as of the end of the last runtime's setup."""
    counts = Counter()

    def count(cls, name, key, after=None):
        original = getattr(cls, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            result = original(*args, **kwargs)
            if after is not None:
                after()
            return result

        monkeypatch.setattr(cls, name, counting)

    count(TaskBlockSim, "tick_event", "visits")
    count(DataflowInstance, "process", "sweeps")
    count(Observability, "classify_instance", "classified")
    count(DataflowInstance, "__init__", "builds")
    count(DataflowInstance, "recycle", "recycles")
    count(SourceLoc, "label", "labels")

    bind = CompiledTask.bind

    def counting_bind(self, instance):
        counts["binds"] += 1
        steps = bind(self, instance)
        counts["generic_binds"] += sum(
            step.__name__ == "generic_step" for step in steps)
        return [_counted_step(step, instance, counts) for step in steps]

    monkeypatch.setattr(CompiledTask, "bind", counting_bind)

    # The dense sweep drains a node's forks, then ticks it.
    act_before = [0]
    drain = NodeSim.drain_forks

    def snapshot_drain(self):
        act_before[0] = self.instance._act
        drain(self)

    def counting_tick(tick):
        def counted(self, now):
            tick(self, now)
            if self.instance._act != act_before[0]:
                counts["dense_acting"] += 1

        return counted

    monkeypatch.setattr(NodeSim, "drain_forks", snapshot_drain)
    for cls in set(SIM_CLASSES.values()):
        if "tick" in vars(cls):
            monkeypatch.setattr(cls, "tick",
                                counting_tick(vars(cls)["tick"]))

    def setup_done():
        counts["labels_at_setup"] = counts["labels"]

    count(SimRuntime, "__init__", "runtimes", after=setup_done)
    return counts


class TestWorkCounts:
    @pytest.mark.parametrize("name", sorted(WORK))
    def test_eval_sim_kernel_work(self, name, work):
        w, circuit = _allopts(name)
        result = simulate(circuit, w.fresh_memory(), list(w.args_for()),
                          SimParams(kernel="compiled"))
        cycles, visits, sweeps, classified, builds, recycles, steps, \
            acting = WORK[name]
        assert result.cycles == cycles
        assert (work["visits"], work["sweeps"], work["classified"]) == \
            (visits, sweeps, classified)
        assert work["runtimes"] == 1
        # Recycled instances keep their steps.
        assert (work["builds"], work["recycles"], work["binds"]) == \
            (builds, recycles, builds)
        assert (work["steps"], work["acting"]) == (steps, acting)
        # Every compute and fused unit here takes an unrolled step.
        assert work["generic_binds"] == 0
        # Any correct wake scheme steps every node-cycle that acts
        # under the dense sweep, and a step that acts is one of them.
        assert work["dense_acting"] == 0
        dense = simulate(circuit, w.fresh_memory(), list(w.args_for()),
                         SimParams(kernel="dense"))
        assert dense.cycles == cycles
        assert work["dense_acting"] == acting

    @pytest.mark.parametrize("name", ["gemm", "saxpy"])
    def test_labels_are_built_before_the_first_cycle(self, name, work):
        w, circuit = _allopts(name)
        simulate(circuit, w.fresh_memory(), list(w.args_for()),
                 SimParams(kernel="compiled"))
        assert work["labels_at_setup"] > 0
        assert work["labels"] == work["labels_at_setup"]


#: Stall sections of the ``SimulationTimeout`` each all-opts run
#: raises at ``max_cycles=600``, key order included.  Re-recorded
#: when pops, a child's answer, an unpark and a loop finish stopped
#: waking nodes that could not act: an instance no longer swept for
#: nothing sleeps through those cycles and charges them, so gemm's
#: and saxpy's ``upstream_empty`` and ``dram_inflight`` rose.
TIMEOUT_STALLS = {
    "gemm": {
        "stall_cycles": {"child_wait": 13, "task_queue_full": 4117,
                         "upstream_empty": 914, "dram_inflight": 12},
        "node_stalls": {
            "main.call_main_loop_i_header_1": {"child_wait": 7},
            "main_loop_i_header.call_main_loop_j_header_3":
                {"task_queue_full": 7, "child_wait": 6},
            "main_loop_j_header.store_8":
                {"upstream_empty": 766, "dram_inflight": 12},
            "main_loop_j_header.call_main_loop_k_header_3":
                {"task_queue_full": 778},
            "main_loop_i_header": {"task_queue_full": 16},
            "main_loop_k_header.load7_8": {"upstream_empty": 74},
            "main_loop_k_header.load11_13": {"upstream_empty": 74},
            "main_loop_j_header": {"task_queue_full": 3316},
        },
        "source_stalls": {
            "gemm.mc:7 (main)": {"child_wait": 7},
            "gemm.mc:8 (main_loop_i_header)":
                {"task_queue_full": 7, "child_wait": 6},
            "gemm.mc:13 (main_loop_j_header)":
                {"upstream_empty": 766, "dram_inflight": 12},
            "gemm.mc:10 (main_loop_j_header)": {"task_queue_full": 778},
            "gemm.mc:11 (main_loop_k_header)": {"upstream_empty": 148},
        },
    },
    "saxpy": {
        "stall_cycles": {"child_wait": 7, "dram_inflight": 2700,
                         "upstream_empty": 2178, "task_queue_full": 303},
        "node_stalls": {
            "main.call_main_loop_i_header_1": {"child_wait": 7},
            "main_task0.load3_3":
                {"dram_inflight": 1218, "upstream_empty": 408},
            "main_task0.load6_7":
                {"dram_inflight": 1218, "upstream_empty": 408},
            "main_task0.store_10":
                {"upstream_empty": 1362, "dram_inflight": 264},
            "main_loop_i_header.spawn_main_task0_3":
                {"task_queue_full": 154},
            "main_loop_i_header": {"task_queue_full": 149},
        },
        "source_stalls": {
            "saxpy.mc:6 (main)": {"child_wait": 7},
            "saxpy.mc:7 (main_task0)":
                {"dram_inflight": 2700, "upstream_empty": 2178},
            "saxpy.mc:6 (main_loop_i_header)": {"task_queue_full": 154},
        },
    },
}


class TestFailedRunAttribution:
    # Only the compiled kernel attributes stalls.
    @pytest.mark.parametrize("kernel", ["compiled"])
    @pytest.mark.parametrize("name", sorted(TIMEOUT_STALLS))
    def test_timeout_ships_its_stall_sections(self, name, kernel):
        w, circuit = _allopts(name)
        with pytest.raises(SimulationTimeout) as info:
            simulate(circuit, w.fresh_memory(), list(w.args_for()),
                     SimParams(kernel=kernel, max_cycles=600))
        doc = info.value.stats.to_json()
        assert doc["cycles"] == 600
        sections = {key: doc[key] for key in TIMEOUT_STALLS[name]}
        assert json.dumps(sections) == json.dumps(TIMEOUT_STALLS[name])


#: ``main``'s loop calls ``c`` faster than ``c`` drains, so the caller
#: parks blocked on a full queue.  Each ``c`` parks on its looping call
#: to ``d``, which frees its tile: ``c``'s block starts the next queued
#: call and credits the parked caller before any response arrives.
#: Only the caller's retry time unparks it then, and nothing else
#: gives its block work at that cycle.
RETRY_SRC = """
array a: i32[64];
func d(v: i32) -> i32 {
  var s: i32 = 0;
  for (k = 0; k < %d; k = k + 1) { s = s + a[(v + k) & 63]; }
  return s;
}
func c(v: i32) -> i32 { return d(v) + 1; }
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = c(i); }
}
"""


class TestParkedRetry:
    @pytest.mark.parametrize("trips,cycles,parked",
                             [(12, 1091, 110), (40, 2812, 232)])
    def test_retry_time_matches_dense(self, trips, cycles, parked):
        module = compile_minic(RETRY_SRC % trips)
        circuit = translate_module(module)
        for kernel in ("dense", "compiled"):
            result = simulate(circuit, Memory(module), [24],
                              SimParams(kernel=kernel))
            assert (result.cycles, result.stats.parked) == \
                (cycles, parked), kernel
