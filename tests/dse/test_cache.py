"""Cache-correctness tests: content addressing and the result store.

The load-bearing property: the content key must identify the circuit
as built — the thing that is simulated — so equal keys mean equal
simulations.  Build order is content (arbitration ties make timing
order-sensitive), the display name is not, and any semantic change (a
constant, a banking factor, a queue depth, a connection buffer)
misses.  So a cache hit is bit-identical to a fresh run (see
tests/dse/test_engine.py for the end-to-end half of that claim).
"""

import json
import os
import subprocess
import sys

import repro
from repro import Pipeline
from repro.core.serialize import (
    circuit_fingerprint,
    circuit_from_dict,
    circuit_to_dict,
)
from repro.dse import (CACHE_SCHEMA, GridSpace, ResultCache, content_key,
                       explore, request_key)
from repro.dse.cache import sim_key_dict
from repro.sim import SimParams


def _optimized_circuit(spec="localize,banking=2,fusion"):
    return Pipeline("saxpy").optimize(spec).circuit


def _permuted(data):
    """Same content, different build order: reverse every list whose
    order is a construction artifact."""
    data = json.loads(json.dumps(data))  # deep copy
    data["structures"] = list(reversed(data["structures"]))
    data["tasks"] = list(reversed(data["tasks"]))
    data["task_edges"] = list(reversed(data["task_edges"]))
    for task in data["tasks"]:
        task["nodes"] = list(reversed(task["nodes"]))
        task["connections"] = list(reversed(task["connections"]))
        task["junctions"] = list(reversed(task["junctions"]))
        for junction in task["junctions"]:
            junction["clients"] = list(reversed(junction["clients"]))
    return data


class TestFingerprint:
    def test_build_order_is_content(self):
        # The same covar hardware built in reverse order arbitrates
        # its within-cycle ties differently: another cycle count, so
        # it must be another identity.
        spec = "localize,banking=2,fusion,tuning"
        circuit = Pipeline("covar").optimize(spec).circuit
        permuted = circuit_from_dict(_permuted(circuit_to_dict(circuit)))
        assert circuit_fingerprint(permuted) != \
            circuit_fingerprint(circuit)
        as_built = Pipeline.from_circuit(circuit, workload="covar")
        rebuilt = Pipeline.from_circuit(permuted, workload="covar")
        assert as_built.simulate().cycles == 1137
        assert rebuilt.simulate().cycles == 1138

    def test_same_request_builds_the_same_circuit_in_every_process(self):
        # An identity of the circuit as built is only useful if every
        # process builds the same circuit: covar's task order once
        # followed object addresses, which split its equal circuits.
        code = ("from repro import Pipeline\n"
                "from repro.core.serialize import circuit_fingerprint\n"
                "print(circuit_fingerprint(Pipeline('covar').optimize("
                "'localize,banking=2,fusion,tuning').circuit))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        prints = {subprocess.run(
            [sys.executable, "-c", code], check=True, text=True,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        ).stdout for seed in ("0", "1", "2")}
        assert len(prints) == 1

    def test_display_name_excluded(self):
        data = circuit_to_dict(_optimized_circuit())
        renamed = dict(data, name="totally_different")
        assert circuit_fingerprint(circuit_from_dict(renamed)) == \
            circuit_fingerprint(circuit_from_dict(data))

    def test_serialize_round_trip_stable(self):
        circuit = _optimized_circuit()
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        assert circuit_fingerprint(rebuilt) == \
            circuit_fingerprint(circuit)

    def test_const_value_change_misses(self):
        data = circuit_to_dict(_optimized_circuit())
        base = circuit_fingerprint(circuit_from_dict(data))
        for task in data["tasks"]:
            consts = [n for n in task["nodes"] if n["kind"] == "const"]
            if consts:
                consts[0]["value"] += 1
                break
        else:
            raise AssertionError("no const node found")
        assert circuit_fingerprint(circuit_from_dict(data)) != base

    def test_banking_change_misses(self):
        a = circuit_fingerprint(_optimized_circuit("localize,banking=2"))
        b = circuit_fingerprint(_optimized_circuit("localize,banking=4"))
        assert a != b

    def test_queue_depth_change_misses(self):
        data = circuit_to_dict(_optimized_circuit())
        base = circuit_fingerprint(circuit_from_dict(data))
        data["tasks"][0]["queue_depth"] += 1
        assert circuit_fingerprint(circuit_from_dict(data)) != base

    def test_connection_depth_change_misses(self):
        data = circuit_to_dict(_optimized_circuit())
        base = circuit_fingerprint(circuit_from_dict(data))
        conns = data["tasks"][0]["connections"]
        conns[0]["depth"] = (conns[0]["depth"] or 1) + 1
        assert circuit_fingerprint(circuit_from_dict(data)) != base

    def test_pass_pipeline_changes_fingerprint(self):
        assert circuit_fingerprint(Pipeline("saxpy").circuit) != \
            circuit_fingerprint(_optimized_circuit())


class TestKeys:
    def test_content_key_sensitivity(self):
        sim = sim_key_dict(SimParams())
        base = content_key("fp", "saxpy", "base", [16], sim)
        assert content_key("fp", "saxpy", "base", [16], sim) == base
        assert content_key("fp2", "saxpy", "base", [16], sim) != base
        assert content_key("fp", "fib", "base", [16], sim) != base
        assert content_key("fp", "saxpy", "big", [16], sim) != base
        assert content_key("fp", "saxpy", "base", [32], sim) != base
        other = sim_key_dict(SimParams(kernel="dense"))
        assert content_key("fp", "saxpy", "base", [16], other) != base

    def test_sim_key_excludes_wallclock_knobs(self):
        # Watchdog/observability settings change how a run is *watched*,
        # not what it computes: same key.
        a = sim_key_dict(SimParams())
        b = sim_key_dict(SimParams(wallclock_timeout=1.0))
        assert a == b
        assert sim_key_dict(SimParams(max_cycles=10)) != a

    def test_request_key_sensitivity(self):
        sim = sim_key_dict(SimParams())
        base = request_key("saxpy", "base", "memory_localization",
                           [16], sim)
        assert request_key("saxpy", "base", "memory_localization",
                           [16], sim) == base
        assert request_key("saxpy", "base", "op_fusion",
                           [16], sim) != base
        assert request_key("fib", "base", "memory_localization",
                           [16], sim) != base

    def test_checked_sweep_never_answered_by_unchecked_cache(
            self, tmp_path):
        root = str(tmp_path / "c")

        def sweep(check):
            return explore("saxpy", GridSpace({"banks": [1, 2]}),
                           pipeline="localize,banking={banks}",
                           workers=1, cache=root, check=check)

        unchecked = sweep(False)
        assert all(p.verified is None for p in unchecked.points)
        checked = sweep(True)
        assert [p.source for p in checked.points] == ["fresh", "fresh"]
        assert all(p.verified is True for p in checked.points)
        again = sweep(True)
        assert [p.source for p in again.points] == \
            ["cache-index", "cache-index"]
        assert all(p.verified is True for p in again.points)


class TestOlderStores:
    def test_v1_cache_dir_is_a_clean_miss(self, tmp_path, monkeypatch):
        # A cache written under repro.dse-cache/v1 (objects holding
        # SimStats and canonical-rebuild cycle counts) keys and stamps
        # everything with that schema, so a v2 sweep misses it
        # cleanly: nothing reads as corrupt, every point is fresh.
        import repro.dse.cache as cache_mod
        root = str(tmp_path / "c")

        def sweep():
            return explore("saxpy", GridSpace({"banks": [1, 2]}),
                           pipeline="localize,banking={banks}",
                           workers=1, cache=root)

        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA",
                            "repro.dse-cache/v1")
        sweep()
        monkeypatch.undo()
        with open(os.path.join(root, "index.json")) as fh:
            assert json.load(fh)["schema"] == "repro.dse-cache/v1"

        report = sweep()
        assert [p.source for p in report.points] == ["fresh", "fresh"]
        assert report.cache["object_corrupt"] == 0
        assert report.cache["object_hits"] == 0
        assert report.cache["index_hits"] == 0


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        doc = {"cycles": 42, "stats": {"kernel": "event"}}
        cache.put("ab" + "0" * 62, doc)
        got = cache.get("ab" + "0" * 62)
        assert got["cycles"] == 42
        assert got["schema"] == CACHE_SCHEMA
        assert cache.get("cd" + "0" * 62) is None

    def test_corrupt_object_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        cache.put(key, {"cycles": 1})
        with open(cache._object_path(key), "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_corrupt_object_quarantined_on_first_read(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        cache.put(key, {"cycles": 1})
        path = cache._object_path(key)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None
        # renamed out of the lookup path: counted once, then a miss
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert cache.get(key) is None
        assert cache.counts["object_corrupt"] == 1
        assert cache.counts["object_misses"] == 1
        # re-evaluation overwrites cleanly
        cache.put(key, {"cycles": 2})
        assert cache.get(key)["cycles"] == 2

    def test_schema_mismatch_also_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        cache.put(key, {"cycles": 1})
        path = cache._object_path(key)
        doc = json.load(open(path))
        doc["schema"] = "something/else"
        json.dump(doc, open(path, "w"))
        assert cache.get(key) is None
        assert os.path.exists(path + ".corrupt")

    def test_write_failure_degrades_to_memory(self, tmp_path,
                                              monkeypatch, capsys):
        import repro.dse.cache as cache_mod

        cache = ResultCache(str(tmp_path / "c"))

        def denied(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_mod.tempfile, "mkstemp", denied)
        key = "ab" + "0" * 62
        cache.put(key, {"cycles": 9})          # does not raise
        assert cache.degraded
        assert cache.counts["write_errors"] == 1
        assert cache.get(key)["cycles"] == 9   # served from memory
        assert cache.counts["object_hits"] == 1
        cache.record_request("req1", key)
        cache.save_index()                     # also degrades quietly
        assert cache.counts["write_errors"] == 2
        # one-time warning only
        cache.put("cd" + "0" * 62, {"cycles": 1})
        err = capsys.readouterr().err
        assert err.count("caching in memory") == 1
        # nothing reached disk
        assert ResultCache(cache.root).get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        cache.put(key, {"cycles": 1})
        path = cache._object_path(key)
        doc = json.load(open(path))
        doc["schema"] = "something/else"
        json.dump(doc, open(path, "w"))
        assert cache.get(key) is None

    def test_request_index_persists(self, tmp_path):
        root = str(tmp_path / "c")
        ckey = "ab" + "0" * 62
        cache = ResultCache(root)
        cache.put(ckey, {"cycles": 7})
        cache.record_request("req1", ckey)
        cache.save_index()

        fresh = ResultCache(root)
        assert fresh.lookup_request("req1")["cycles"] == 7
        assert fresh.lookup_request("req2") is None

    def test_index_miss_on_missing_object(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.record_request("req1", "ab" + "0" * 62)
        cache.save_index()
        assert ResultCache(cache.root).lookup_request("req1") is None
