"""DeadlockError diagnostics, exercised on a cyclic-backpressure
deadlock forced by a permanent credit-withhold fault.

From some cycle on, every dataflow edge refuses credit: producers
stall on full downstream channels while consumers starve on empty
upstream ones — the classic backpressure cycle.  The engine must
report *why*: per-task blocked-node causes with source locations, not
just "no progress"."""

import pytest

from repro.errors import DeadlockError
from repro.frontend import translate_module
from repro.sim import SimParams, simulate
from repro.sim.faults import FaultPlan
from repro.workloads import get_workload

FREEZE = FaultPlan(seed=0, freeze_at=60)

#: The stall taxonomy of repro.sim.observe.
CAUSES = {"upstream_empty", "downstream_full", "bank_conflict",
          "junction_arb", "dram_inflight", "task_queue_full",
          "child_wait", "iter_window", "idle"}


def _deadlock(workload="saxpy", kernel="compiled"):
    w = get_workload(workload)
    circuit = translate_module(w.module(), name=workload)
    with pytest.raises(DeadlockError) as exc:
        simulate(circuit, w.fresh_memory(), list(w.args_for()),
                 SimParams(kernel=kernel, faults=FREEZE,
                           deadlock_window=500, max_cycles=200_000))
    return exc.value


class TestDiagnosticsStructure:
    def test_per_task_entries(self):
        err = _deadlock()
        assert err.diagnostics, "diagnostics must not be empty"
        for entry in err.diagnostics:
            assert set(entry) >= {"task", "ready", "active", "parked",
                                  "instances"}

    def test_blocked_nodes_have_cause_and_location(self):
        err = _deadlock()
        blocked = [n for entry in err.diagnostics
                   for inst in entry["instances"]
                   for n in inst["blocked_nodes"]]
        assert blocked
        for node in blocked:
            assert node["cause"] in CAUSES
        # The frozen edges manifest as the backpressure pair.
        causes = {n["cause"] for n in blocked}
        assert "downstream_full" in causes or \
            "upstream_empty" in causes
        # Source attribution: locations point into the MiniC source.
        locs = [n["loc"] for n in blocked if n.get("loc")]
        assert locs and any(".mc" in loc for loc in locs)

    def test_report_string_names_blocked_nodes(self):
        err = _deadlock()
        assert "blocked" in str(err)
        assert any(cause in str(err)
                   for cause in ("downstream_full", "upstream_empty"))

    def test_instance_progress_snapshot(self):
        err = _deadlock()
        inst = err.diagnostics[0]["instances"][0]
        assert "liveouts" in inst and "/" in inst["liveouts"]
        assert "pending_children" in inst


class TestKernelAgreement:
    def test_both_kernels_diagnose_the_same_deadlock(self):
        compiled = _deadlock(kernel="compiled")
        dense = _deadlock(kernel="dense")
        assert compiled.cycle == dense.cycle

        def causes(err):
            return {n["cause"] for entry in err.diagnostics
                    for inst in entry["instances"]
                    for n in inst["blocked_nodes"]}

        # The backpressure pair is diagnosed identically; the compiled
        # kernel may attribute *extra* causes (finer wake bookkeeping,
        # e.g. the blocked spawn as task_queue_full).
        assert causes(dense) <= causes(compiled)
        assert {"downstream_full", "upstream_empty"} <= causes(compiled)


class TestDeadlockPrecedence:
    def test_deadlock_wins_over_max_cycles(self):
        """Guard ordering: a quiescent circuit is reported as deadlock
        even when max_cycles would also have tripped soon after."""
        w = get_workload("saxpy")
        circuit = translate_module(w.module(), name="saxpy")
        with pytest.raises(DeadlockError):
            simulate(circuit, w.fresh_memory(), list(w.args_for()),
                     SimParams(faults=FREEZE, deadlock_window=200,
                               max_cycles=100_000))

    def test_frozen_retry_loop_is_not_progress(self):
        """A permanently enqueue-blocked instance retrying its park
        must not defeat deadlock detection (the retry-livelock bug):
        detection fires within ~deadlock_window of quiescence."""
        err = _deadlock()
        # freeze at 60, window 500: detection must come well before
        # the multi-thousand-cycle fault-free completion.
        assert err.cycle < 60 + 500 + 100
