"""Kernel equivalence, stall attribution, and stats schema.

The equivalence matrix pins the event-driven and compiled kernels
against cycle counts, memory digests, and results recorded from the
seed (dense) engine on every built-in workload, under both the
baseline and the full optimization stack.  Any wakeup that is dropped
or delivered in the wrong cycle — or any compiled specialization that
diverges from the reference step semantics — shows up as a
cycle-count or memory mismatch here.  A second pin, digests of the
full stats document and of the trace ring, catches changes that keep
cycles but move stall attribution or event order in both kernels.
"""

import hashlib
import json
import os

import pytest

from repro.bench.configs import all_opts_for
from repro.errors import DeadlockError
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Memory
from repro.opt.pass_manager import PassManager
from repro.sim import SimParams, simulate
from repro.sim.stats import STATS_SCHEMA
from repro.workloads import WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "seed_cycles.json")
with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)
#: Per golden case: digests of the stats document and the trace ring
#: (see :func:`stats_digests`), recorded before the scheduler's wake
#: sets became bitmasks, so any change to stall attribution or event
#: order in either kernel shows up here.
DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "stats_digests.json")
with open(DIGESTS_PATH) as _fh:
    DIGESTS = json.load(_fh)

#: Small/medium workloads exercised per-config in the default run;
#: the rest of the matrix is gated behind RUN_FULL_MATRIX=1 to keep
#: the tier-1 suite fast.
FAST_MATRIX = ["saxpy", "stencil", "fib", "dense8", "softm8", "relu_t"]
SLOW_MATRIX = [name for name in WORKLOADS if name not in FAST_MATRIX]
full_matrix = pytest.mark.skipif(
    not os.environ.get("RUN_FULL_MATRIX"),
    reason="set RUN_FULL_MATRIX=1 to run the full workload matrix")


def _mem_digest(mem) -> str:
    h = hashlib.sha256()
    for word in mem.words:
        h.update(repr(word).encode())
    return h.hexdigest()[:16]


def _run_config(name: str, config: str, kernel: str = "event",
                observe: str = "counters"):
    w = WORKLOADS[name]
    passes = [] if config == "baseline" else all_opts_for(name)
    circuit = translate_module(w.module(), name=f"{name}_{config}")
    PassManager(list(passes)).run(circuit)
    mem = w.fresh_memory()
    params = SimParams(kernel=kernel, observe=observe)
    result = simulate(circuit, mem, list(w.args_for()), params)
    return result, mem


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stats_digests(name: str, config: str, kernel: str) -> dict:
    """Digests of one traced run: the full ``SimStats`` document minus
    its ``kernel`` label, and the trace ring in emit order (plus its
    drop count).  The stats document of a traced run equals the one
    of a ``counters`` run, so one run pins both."""
    result, _ = _run_config(name, config, kernel=kernel, observe="trace")
    doc = result.stats.to_json()
    doc.pop("kernel")
    ring = [list(rec) for rec in result.observer.ring]
    return {"stats": _digest(doc),
            "trace": _digest([ring, result.observer.dropped])}


def _document(name: str, config: str, kernel: str, observe: str) -> str:
    """The stats document of one run as ``json.dumps`` writes it,
    unsorted, so key order counts."""
    result, _ = _run_config(name, config, kernel=kernel, observe=observe)
    return json.dumps(result.stats.to_json())


class TestEventKernelEquivalence:
    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_matches_seed_golden(self, name, config, kernel):
        golden = GOLDEN[f"{name}/{config}"]
        result, mem = _run_config(name, config, kernel=kernel)
        assert result.cycles == golden["cycles"], (
            f"{name}/{config}: {kernel} kernel cycles {result.cycles} "
            f"!= seed {golden['cycles']}")
        assert _mem_digest(mem) == golden["mem"], (
            f"{name}/{config}: memory image diverged from seed")
        assert list(result.results) == golden["results"]

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_matches_seed_golden_slow(self, name, config, kernel):
        golden = GOLDEN[f"{name}/{config}"]
        result, mem = _run_config(name, config, kernel=kernel)
        assert result.cycles == golden["cycles"]
        assert _mem_digest(mem) == golden["mem"]
        assert list(result.results) == golden["results"]

    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_stats_and_trace_match_digests(self, name, config, kernel):
        key = f"{name}/{config}"
        assert stats_digests(name, config, kernel) == DIGESTS[key], (
            f"{key}: {kernel} kernel stats document or trace diverged")

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_stats_and_trace_match_digests_slow(self, name, config,
                                                kernel):
        key = f"{name}/{config}"
        assert stats_digests(name, config, kernel) == DIGESTS[key]

    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_counters_document_equals_traced(self, name, config, kernel):
        # The default observe="counters" document is byte-identical to
        # the traced one, whose digest is pinned above: key order too,
        # which orders ties in top_stalled_nodes and repro report.
        assert _document(name, config, kernel, "counters") == \
            _document(name, config, kernel, "trace")

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("kernel", ["event", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_counters_document_equals_traced_slow(self, name, config,
                                                  kernel):
        assert _document(name, config, kernel, "counters") == \
            _document(name, config, kernel, "trace")

    @pytest.mark.parametrize("name", ["saxpy", "fib"])
    def test_compiled_stats_identical_to_event(self, name):
        # Bit identity extends to the observability layer: every
        # counter the event kernel produces, the compiled kernel must
        # reproduce exactly (only the kernel label may differ).
        ev, _ = _run_config(name, "allopts", kernel="event")
        co, _ = _run_config(name, "allopts", kernel="compiled")
        ev_doc = ev.stats.to_json()
        co_doc = co.stats.to_json()
        assert ev_doc.pop("kernel") == "event"
        assert co_doc.pop("kernel") == "compiled"
        assert ev_doc == co_doc

    def test_dense_kernel_still_matches(self):
        # The dense path must stay a faithful oracle.
        golden = GOLDEN["saxpy/baseline"]
        result, mem = _run_config("saxpy", "baseline", kernel="dense")
        assert result.cycles == golden["cycles"]
        assert _mem_digest(mem) == golden["mem"]

    def test_golden_covers_every_workload(self):
        for name in WORKLOADS:
            assert f"{name}/baseline" in GOLDEN
            assert f"{name}/allopts" in GOLDEN
        assert set(DIGESTS) == set(GOLDEN)


class TestStallAttribution:
    def test_memory_bound_loop_blames_dram(self):
        result, _ = _run_config("saxpy", "baseline")
        stalls = result.stats.stall_cycles
        assert stalls, "counters mode should attribute stalls"
        assert stalls.get("dram_inflight", 0) > 0
        # Attribution must never exceed total instance-sleep time.
        assert all(c >= 0 for c in stalls.values())

    def test_per_node_attribution_names_real_nodes(self):
        result, _ = _run_config("saxpy", "baseline")
        rows = result.stats.top_stalled_nodes(5)
        assert rows
        for label, cause, cycles in rows:
            assert cycles > 0
            assert isinstance(label, str) and label
            assert isinstance(cause, str) and cause

    def test_observe_off_disables_counters(self):
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_off")
        PassManager([]).run(circuit)
        mem = w.fresh_memory()
        result = simulate(circuit, mem, list(w.args_for()),
                          SimParams(observe="off"))
        assert not result.stats.stall_cycles

    def test_trace_mode_produces_chrome_trace(self, tmp_path):
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_trace")
        PassManager([]).run(circuit)
        mem = w.fresh_memory()
        result = simulate(circuit, mem, list(w.args_for()),
                          SimParams(observe="trace"))
        doc = result.observer.chrome_trace()
        assert doc["traceEvents"]
        path = tmp_path / "trace.json"
        result.observer.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == doc["traceEvents"]

    def test_deadlock_diagnostics_name_blocked_nodes(self):
        # An unconnected liveout can never be satisfied.
        from repro.core import AcceleratorCircuit, Cache, TaskBlock
        from repro.core.nodes import LiveIn, LiveOut
        from repro.types import I32

        circuit = AcceleratorCircuit("dead")
        circuit.add_structure(Cache("l1"))
        task = TaskBlock("main", "func")
        task.live_in_types = [I32]
        task.live_out_types = [I32]
        task.dataflow.add(LiveIn(0, I32))
        liveout = task.dataflow.add(LiveOut(0, I32))
        circuit.add_task(task)

        class _FakeMemory:
            words = [0] * 16

        with pytest.raises(DeadlockError) as exc_info:
            simulate(circuit, _FakeMemory(), [5],
                     SimParams(deadlock_window=50, validate=False))
        err = exc_info.value
        assert err.diagnostics, "deadlock must carry diagnostics"
        entry = err.diagnostics[0]
        assert entry["task"] == "main"
        blocked = entry["instances"][0]["blocked_nodes"]
        assert any(n["node"] == liveout.name for n in blocked)
        assert any(n["cause"] == "upstream_empty" for n in blocked)
        assert "upstream_empty" in str(err)


class TestStatsJsonSchema:
    def test_schema_and_required_fields(self, tmp_path):
        result, _ = _run_config("saxpy", "baseline")
        doc = result.stats.to_json()
        assert doc["schema"] == STATS_SCHEMA
        assert doc["kernel"] == "event"
        assert doc["cycles"] == result.cycles
        for key in ("stall_cycles", "node_stalls", "site_stalls",
                    "memory_reads", "memory_writes",
                    "idle_engine_cycles"):
            assert key in doc, f"missing stats field {key}"
        path = tmp_path / "stats.json"
        result.stats.dump_json(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(doc))

    def test_json_round_trip_is_plain_data(self):
        result, _ = _run_config("fib", "baseline")
        doc = json.loads(json.dumps(result.stats.to_json()))
        assert doc["kernel"] == "event"
        assert isinstance(doc["stall_cycles"], dict)
        assert isinstance(doc["node_stalls"], dict)


if __name__ == "__main__":
    # Re-record golden/stats_digests.json (event kernel; the compiled
    # kernel must agree, which the digest tests check).
    digests = {key: stats_digests(*key.split("/"), kernel="event")
               for key in sorted(GOLDEN)}
    with open(DIGESTS_PATH, "w") as _fh:
        json.dump(digests, _fh, indent=1, sort_keys=True)
        _fh.write("\n")
