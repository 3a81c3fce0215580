"""Simulation statistics.

Extended by the observability layer with attributed stall counters:
``stall_cycles`` aggregates slept cycles by cause (see
:mod:`repro.sim.observe` for the taxonomy), ``node_stalls`` breaks
the same cycles down per node label (``task.node``), and
``source_stalls`` rolls them up by *source location* (the provenance
label ``file:line (task)`` carried on every uIR node) so reports can
rank MiniC lines instead of anonymous node ids.  ``site_stalls``
carries the memory-side view (per junction / structure).  The whole
object serializes to a versioned JSON document via :meth:`to_json`
for the CLI's ``--stats-json`` and the benchmark harness, and loads
back with :meth:`from_json` for offline analysis.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Tuple

#: Version tag of the JSON stats document; bump on breaking changes.
#: v3 adds provenance-keyed ``source_stalls`` and the loader.
STATS_SCHEMA = "repro.simstats/v3"


class SimStats:
    """Counters accumulated over one simulation run."""

    def __init__(self):
        self.cycles = 0
        self.invocations: Counter = Counter()      # per task name
        self.node_fires: Counter = Counter()       # per node kind
        self.memory_reads = 0
        self.memory_writes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dram_requests = 0
        self.bank_conflict_stalls = 0
        self.junction_stalls = 0
        self.iterations: Counter = Counter()       # loop iterations/task
        self.parked = 0
        # -- observability extensions (compiled kernel) -------------------
        #: Cycles a DRAM transaction was in flight (tick granularity).
        self.dram_busy_cycles = 0
        #: Attributed stall cycles by cause (taxonomy in sim.observe).
        self.stall_cycles: Counter = Counter()
        #: Per-node stall breakdown: ``{"task.node": {cause: cycles}}``.
        self.node_stalls: Dict[str, Dict[str, int]] = \
            _CounterDict()
        #: Per-source-location stall breakdown:
        #: ``{"gemm.mc:14 (loop)": {cause: cycles}}``.
        self.source_stalls: Dict[str, Dict[str, int]] = \
            _CounterDict()
        #: Memory-side arbitration stalls per site
        #: (``junction:<name>`` / ``structure:<name>``).
        self.site_stalls: Counter = Counter()
        #: Requests granted (issued) per junction arbiter — the PMU's
        #: ``arbiter_grant`` counters read these back.
        self.junction_grants: Counter = Counter()
        #: Engine-level accounting: cycles with no activity anywhere.
        self.idle_engine_cycles = 0
        #: Kernel that produced this run ("compiled" or "dense"); a
        #: dense run's document differs from a compiled one's only in
        #: this label and in the stall attribution it does not record
        #: (``stall_cycles``, ``node_stalls``, ``source_stalls``).
        self.kernel = "compiled"
        # -- batched simulation (sim.engine.simulate_batch) ----------------
        #: Number of workload lanes this document aggregates (0 = a
        #: plain scalar run; the JSON document is unchanged then, so
        #: the v3 round-trip is preserved).
        self.batch_lanes = 0
        #: "vectorized", "sequential" or "deopt" (batched runs only).
        self.batch_mode = ""
        #: Per-lane cycle counts (None marks a failed lane).
        self.lane_cycles: List = []

    @property
    def memory_accesses(self) -> int:
        return self.memory_reads + self.memory_writes

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.stall_cycles.values())

    def summary(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "invocations": dict(self.invocations),
            "iterations": dict(self.iterations),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dram_requests": self.dram_requests,
            "bank_conflict_stalls": self.bank_conflict_stalls,
            "junction_stalls": self.junction_stalls,
            "parked": self.parked,
        }

    def to_json(self) -> Dict[str, object]:
        """Full versioned stats document (superset of summary())."""
        doc = {"schema": STATS_SCHEMA, "kernel": self.kernel}
        doc.update(self.summary())
        doc["node_fires"] = dict(self.node_fires)
        doc["dram_busy_cycles"] = self.dram_busy_cycles
        doc["idle_engine_cycles"] = self.idle_engine_cycles
        doc["stall_cycles"] = dict(self.stall_cycles)
        doc["node_stalls"] = {k: dict(v)
                              for k, v in self.node_stalls.items()}
        doc["source_stalls"] = {k: dict(v)
                                for k, v in self.source_stalls.items()}
        doc["site_stalls"] = dict(self.site_stalls)
        doc["junction_grants"] = dict(self.junction_grants)
        if self.batch_lanes:
            doc["batch"] = {"lanes": self.batch_lanes,
                            "mode": self.batch_mode,
                            "lane_cycles": list(self.lane_cycles)}
        return doc

    @classmethod
    def from_json(cls, doc: Dict) -> "SimStats":
        """Rebuild a SimStats from a :meth:`to_json` document.

        Accepts v2 documents too (they simply lack ``source_stalls``);
        anything else raises ``ValueError``.
        """
        schema = doc.get("schema", "")
        if schema not in ("repro.simstats/v2", STATS_SCHEMA):
            raise ValueError(f"unsupported stats schema {schema!r}")
        stats = cls()
        stats.kernel = doc.get("kernel", "compiled")
        stats.cycles = doc.get("cycles", 0)
        stats.invocations = Counter(doc.get("invocations", {}))
        stats.iterations = Counter(doc.get("iterations", {}))
        stats.memory_reads = doc.get("memory_reads", 0)
        stats.memory_writes = doc.get("memory_writes", 0)
        stats.cache_hits = doc.get("cache_hits", 0)
        stats.cache_misses = doc.get("cache_misses", 0)
        stats.dram_requests = doc.get("dram_requests", 0)
        stats.bank_conflict_stalls = doc.get("bank_conflict_stalls", 0)
        stats.junction_stalls = doc.get("junction_stalls", 0)
        stats.parked = doc.get("parked", 0)
        stats.node_fires = Counter(doc.get("node_fires", {}))
        stats.dram_busy_cycles = doc.get("dram_busy_cycles", 0)
        stats.idle_engine_cycles = doc.get("idle_engine_cycles", 0)
        stats.stall_cycles = Counter(doc.get("stall_cycles", {}))
        for label, causes in doc.get("node_stalls", {}).items():
            stats.node_stalls[label] = Counter(causes)
        for label, causes in doc.get("source_stalls", {}).items():
            stats.source_stalls[label] = Counter(causes)
        stats.site_stalls = Counter(doc.get("site_stalls", {}))
        stats.junction_grants = Counter(doc.get("junction_grants", {}))
        batch = doc.get("batch")
        if batch:
            stats.batch_lanes = batch.get("lanes", 0)
            stats.batch_mode = batch.get("mode", "")
            stats.lane_cycles = list(batch.get("lane_cycles", []))
        return stats

    @classmethod
    def merged(cls, stats_list: List["SimStats"]) -> "SimStats":
        """Aggregate per-lane stats of a sequential batched run: the
        counters sum across lanes, ``cycles`` is the slowest lane, and
        the kernel label comes from the first lane."""
        out = cls()
        if not stats_list:
            return out
        out.kernel = stats_list[0].kernel
        for s in stats_list:
            out.cycles = max(out.cycles, s.cycles)
            out.invocations.update(s.invocations)
            out.node_fires.update(s.node_fires)
            out.iterations.update(s.iterations)
            out.memory_reads += s.memory_reads
            out.memory_writes += s.memory_writes
            out.cache_hits += s.cache_hits
            out.cache_misses += s.cache_misses
            out.dram_requests += s.dram_requests
            out.bank_conflict_stalls += s.bank_conflict_stalls
            out.junction_stalls += s.junction_stalls
            out.parked += s.parked
            out.dram_busy_cycles += s.dram_busy_cycles
            out.idle_engine_cycles += s.idle_engine_cycles
            out.stall_cycles.update(s.stall_cycles)
            for label, causes in s.node_stalls.items():
                out.node_stalls[label].update(causes)
            for label, causes in s.source_stalls.items():
                out.source_stalls[label].update(causes)
            out.site_stalls.update(s.site_stalls)
            out.junction_grants.update(s.junction_grants)
        return out

    def dump_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @classmethod
    def load_json(cls, path: str) -> "SimStats":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def top_stalled_nodes(self, n: int = 10):
        """``[(label, cause, cycles)]`` ranked by stalled cycles."""
        rows = [(label, cause, cyc)
                for label, causes in self.node_stalls.items()
                for cause, cyc in causes.items()]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:n]

    def top_stalled_sources(self, n: int = 10) \
            -> List[Tuple[str, str, int]]:
        """``[(source_label, cause, cycles)]`` ranked by stalled
        cycles — the source-level view of :meth:`top_stalled_nodes`."""
        rows = [(label, cause, cyc)
                for label, causes in self.source_stalls.items()
                for cause, cyc in causes.items()]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:n]

    def __repr__(self) -> str:
        return (f"SimStats(cycles={self.cycles}, "
                f"mem={self.memory_accesses}, "
                f"hit_rate={self.cache_hit_rate:.2f})")


class _CounterDict(dict):
    """dict that materializes an inner Counter on first access."""

    def __missing__(self, key):
        value = Counter()
        self[key] = value
        return value
