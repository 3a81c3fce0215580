"""Kernel equivalence, stall attribution, and stats schema.

The equivalence matrix pins the dense and compiled kernels against
cycle counts, memory digests, and results recorded from the seed
(dense) engine on every built-in workload, under both the baseline
and the full optimization stack.  A change to a node sim's reference
``tick`` shows up on the dense leg; any wakeup the compiled kernel
drops or delivers in the wrong cycle, or any step closure that
diverges from ``tick``, shows up on the compiled leg.  A second pin,
digests of the compiled kernel's full stats document and of its
trace ring, catches changes that keep cycles but move stall
attribution or event order; a third requires the two kernels' stats
documents to be equal apart from stall attribution and the kernel
label.
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
from tests.conftest import UNSHARED_STATS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "seed_cycles.json")
with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)
#: Per golden case: digests of the compiled kernel's stats document and
#: trace ring (see :func:`stats_digests`), recorded before the
#: scheduler's wake sets became bitmasks, so any change to stall
#: attribution or event order shows up here.
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


def _run_config(name: str, config: str, kernel: str = "compiled",
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


def stats_digests(name: str, config: str) -> dict:
    """Digests of one traced compiled run: the full ``SimStats``
    document minus its ``kernel`` label, and the trace ring in emit
    order (plus its drop count).  The stats document of a traced run
    equals the one of a ``counters`` run, so one run pins both."""
    result, _ = _run_config(name, config, observe="trace")
    doc = result.stats.to_json()
    doc.pop("kernel")
    ring = [list(rec) for rec in result.observer.ring]
    return {"stats": _digest(doc),
            "trace": _digest([ring, result.observer.dropped])}


def _document(name: str, config: str, observe: str) -> str:
    """The stats document of one compiled run as ``json.dumps`` writes
    it, unsorted, so key order counts."""
    result, _ = _run_config(name, config, observe=observe)
    return json.dumps(result.stats.to_json())


def _shared_document(name: str, config: str, kernel: str) -> str:
    """The stats document of one run without :data:`UNSHARED_STATS`,
    as ``json.dumps`` writes it (key order counts)."""
    result, _ = _run_config(name, config, kernel=kernel)
    doc = result.stats.to_json()
    for key in UNSHARED_STATS:
        doc.pop(key)
    return json.dumps(doc)


class TestEventKernelEquivalence:
    @pytest.mark.parametrize("kernel", ["dense", "compiled"])
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
    @pytest.mark.parametrize("kernel", ["dense", "compiled"])
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_matches_seed_golden_slow(self, name, config, kernel):
        golden = GOLDEN[f"{name}/{config}"]
        result, mem = _run_config(name, config, kernel=kernel)
        assert result.cycles == golden["cycles"]
        assert _mem_digest(mem) == golden["mem"]
        assert list(result.results) == golden["results"]

    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_stats_and_trace_match_digests(self, name, config):
        key = f"{name}/{config}"
        assert stats_digests(name, config) == DIGESTS[key], (
            f"{key}: stats document or trace diverged")

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_stats_and_trace_match_digests_slow(self, name, config):
        key = f"{name}/{config}"
        assert stats_digests(name, config) == DIGESTS[key]

    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_counters_document_equals_traced(self, name, config):
        # The default observe="counters" document is byte-identical to
        # the traced one, whose digest is pinned above: key order too,
        # which orders ties in top_stalled_nodes and repro report.
        assert _document(name, config, "counters") == \
            _document(name, config, "trace")

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_counters_document_equals_traced_slow(self, name, config):
        assert _document(name, config, "counters") == \
            _document(name, config, "trace")

    # Every stats field outside stall attribution is the same under
    # both kernels; the digests above pin the attribution, which only
    # the compiled kernel records.
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_stats_document_matches_dense(self, name, config):
        assert _shared_document(name, config, "compiled") == \
            _shared_document(name, config, "dense")

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("config", ["baseline", "allopts"])
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_stats_document_matches_dense_slow(self, name, config):
        assert _shared_document(name, config, "compiled") == \
            _shared_document(name, config, "dense")

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
        assert doc["kernel"] == "compiled"
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
        assert doc["kernel"] == "compiled"
        assert isinstance(doc["stall_cycles"], dict)
        assert isinstance(doc["node_stalls"], dict)


if __name__ == "__main__":
    # Re-record golden/stats_digests.json from the compiled kernel:
    # PYTHONPATH=src python -m tests.sim.test_engine_equivalence
    digests = {key: stats_digests(*key.split("/"))
               for key in sorted(GOLDEN)}
    with open(DIGESTS_PATH, "w") as _fh:
        json.dump(digests, _fh, indent=1, sort_keys=True)
        _fh.write("\n")
