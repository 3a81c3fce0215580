"""Cross-layer bottleneck analyzer (the ``repro report`` command).

Joins the three observability surfaces the toolchain produces for one
workload into a single document:

* **sim** — attributed stall cycles (per cause / node / *source
  line*), memory-site arbitration stalls, and the values of any
  hardware performance counters inserted by the ``perf_counters``
  pass;
* **opt** — the PassManager log: which uopt passes ran, what they
  changed, and how large the structural edit was (Table-4 currency);
* **synth** — the analytic Table-2 row plus the PMU's own area bill.

On top of the joined data it renders a *bound-by verdict* per task
block (memory- / compute- / backpressure- / task-queue-bound) and a
top-N table of MiniC source lines ranked by attributed stall cycles —
the "where is my accelerator spending its time, in terms I wrote"
summary the paper's workflow calls for.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .errors import ReproError
from .sim.stats import SimStats

REPORT_SCHEMA = "repro.report/v1"

#: Verdict labels and the stall causes that vote for each.
BOUND_BY_GROUPS: Dict[str, tuple] = {
    "memory-bound": ("dram_inflight", "bank_conflict", "junction_arb"),
    "backpressure-bound": ("downstream_full",),
    "task-queue-bound": ("task_queue_full", "child_wait"),
    "compute-bound": ("upstream_empty", "iter_window", "idle"),
}


def _jsonify(value):
    """Best-effort JSON coercion for pass detail payloads."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _task_verdicts(stats: SimStats, tasks: List[str]) -> Dict[str, Dict]:
    """Per-task bound-by verdict from the node-level stall breakdown."""
    per_task: Dict[str, Dict[str, int]] = {name: {} for name in tasks}
    for label, causes in stats.node_stalls.items():
        task = label.split(".", 1)[0]
        bucket = per_task.setdefault(task, {})
        for cause, cycles in causes.items():
            bucket[cause] = bucket.get(cause, 0) + cycles
    verdicts: Dict[str, Dict] = {}
    for task in sorted(per_task):
        causes = per_task[task]
        groups = {
            verdict: sum(causes.get(c, 0) for c in members)
            for verdict, members in BOUND_BY_GROUPS.items()
        }
        total = sum(groups.values())
        if total == 0:
            # Never observed asleep: the block is limited by its own
            # datapath throughput, not by anything it waits on.
            bound_by = "compute-bound"
        else:
            bound_by = max(groups, key=lambda v: (groups[v], v))
        verdicts[task] = {
            "bound_by": bound_by,
            "stall_cycles_total": total,
            "stall_cycles_by_group": groups,
            "stall_cycles_by_cause": dict(sorted(causes.items())),
        }
    return verdicts


def _counter_values(circuit, stats: SimStats) -> Dict[str, Dict[str, int]]:
    """Read back every PerfCounterBank in the circuit (the analytic
    stand-in for an AXI-lite PMU readout after the run)."""
    out: Dict[str, Dict[str, int]] = {}
    for structure in circuit.structures:
        if getattr(structure, "KIND", "") == "perf_counters":
            out[structure.name] = structure.sample(stats)
    return out


def _batch_layer(stats: SimStats, batch=None) -> Optional[Dict]:
    """The ``sim.batch`` section: how a batched run actually executed.

    ``batch`` is an optional :class:`repro.sim.BatchResult` for the
    richer live view (deopt cause, per-lane errors and verification);
    without it the section is rebuilt from the SimStats batch fields,
    so saved stats documents render too.
    """
    if batch is not None:
        doc: Dict = {
            "lanes": batch.lanes,
            "mode": batch.mode,
            "lane_cycles": list(batch.stats.lane_cycles),
            "failed_lanes": [i for i, e in enumerate(batch.errors)
                             if e is not None],
        }
        if batch.deopt is not None:
            doc["deopt"] = {
                "error": batch.deopt.get("error"),
                "message": batch.deopt.get("message"),
            }
        if batch.verified is not None:
            doc["verified_lanes"] = sum(batch.verified)
        return doc
    if not getattr(stats, "batch_lanes", 0):
        return None
    return {
        "lanes": stats.batch_lanes,
        "mode": stats.batch_mode,
        "lane_cycles": list(stats.lane_cycles),
    }


def _telemetry_layer() -> Optional[Dict]:
    """Live telemetry snapshot (stage spans + metrics), when enabled."""
    from . import telemetry
    if not telemetry.enabled():
        return None
    tr = telemetry.tracer()
    return {
        "stages_ms": {name: round(sec * 1e3, 3)
                      for name, sec in tr.stage_durations().items()},
        "spans": len(tr.finished()),
        "metrics": telemetry.metrics().snapshot(),
    }


def build_report(pipe, config: str, top_n: int = 10,
                 batch=None) -> Dict:
    """Assemble the cross-layer report document of a simulated and
    synthesized :class:`~repro.api.Pipeline`; ``config`` labels its
    pass stack.

    ``batch`` is the :class:`repro.sim.BatchResult` when the pipeline
    ran batched (``repro report --batch N``): its merged stats and
    first surviving lane stand in for the scalar run.
    """
    if batch is None:
        run, stats = pipe.sim, pipe.sim.stats
    else:
        run, stats = next((r for r in batch.results if r is not None),
                          None), batch.stats
        if run is None:
            raise ReproError(
                f"{pipe.name}: every batch lane failed "
                f"({(batch.errors[0] or {}).get('message', '?')})")
    circuit = pipe.circuit
    synth = pipe.synth
    tasks = sorted(circuit.tasks)

    top_sources = [
        {"loc": loc, "cause": cause, "cycles": cycles}
        for loc, cause, cycles in stats.top_stalled_sources(top_n)
    ]
    top_nodes = [
        {"node": label, "cause": cause, "cycles": cycles}
        for label, cause, cycles in stats.top_stalled_nodes(top_n)
    ]

    sim_layer = {
        "kernel": stats.kernel,
        "cycles": run.cycles,
        "time_us": round(run.cycles / synth.fpga_mhz, 3),
        "total_stall_cycles": stats.total_stall_cycles,
        "stall_cycles_by_cause": dict(sorted(
            stats.stall_cycles.items())),
        "site_stalls": dict(sorted(stats.site_stalls.items())),
        "top_sources": top_sources,
        "top_nodes": top_nodes,
        "counters": _counter_values(circuit, stats),
    }
    batch_layer = _batch_layer(stats, batch)
    if batch_layer is not None:
        sim_layer["batch"] = batch_layer

    opt_layer = {
        "passes": [
            {
                "name": r.pass_name,
                "changed": r.changed,
                "nodes_added": r.nodes_added,
                "nodes_removed": r.nodes_removed,
                "edges_added": r.edges_added,
                "edges_removed": r.edges_removed,
                "wall_ms": round(r.wall_ms, 2),
                "details": _jsonify(r.details),
            }
            for r in pipe.pass_log
        ],
    }

    synth_layer = {
        "table2_row": synth.row(),
        "pmu_overhead": {
            "counters": synth.pmu_counters,
            "alms": synth.pmu_alms,
            "regs": synth.pmu_regs,
            "area_kum2": round(synth.pmu_area_kum2, 3),
        },
    }

    doc = {
        "schema": REPORT_SCHEMA,
        "workload": pipe.workload.name if pipe.workload else pipe.name,
        "config": config,
        "variant": pipe.variant,
        "layers": {
            "sim": sim_layer,
            "opt": opt_layer,
            "synth": synth_layer,
        },
        "verdicts": _task_verdicts(stats, tasks),
    }
    tele = _telemetry_layer()
    if tele is not None:
        doc["telemetry"] = tele
    return doc


# -- markdown rendering -----------------------------------------------------

def _md_table(headers: List[str], rows: List[List]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def render_markdown(report: Dict) -> str:
    """Human-readable bottleneck report (same data as the JSON)."""
    sim = report["layers"]["sim"]
    opt = report["layers"]["opt"]
    synth = report["layers"]["synth"]
    out: List[str] = []
    out.append(f"# Bottleneck report: {report['workload']} "
               f"({report['config']}, variant={report['variant']})")
    out.append("")
    out.append(f"Simulated **{sim['cycles']} cycles** on the "
               f"`{sim['kernel']}` kernel "
               f"(~{sim['time_us']} us at the estimated fmax); "
               f"**{sim['total_stall_cycles']}** node-cycles were "
               f"spent stalled.")
    out.append("")

    if sim.get("batch"):
        b = sim["batch"]
        out.append("## Batched simulation")
        out.append("")
        line = (f"{b['lanes']} lanes ran in **{b['mode']}** mode; "
                f"lane cycles: "
                f"{', '.join(str(c) for c in b['lane_cycles'])}.")
        if b.get("failed_lanes"):
            line += (" Failed lanes: "
                     f"{', '.join(str(i) for i in b['failed_lanes'])}.")
        if "verified_lanes" in b:
            line += (f" {b['verified_lanes']}/{b['lanes']} lanes "
                     f"verified against the golden reference.")
        out.append(line)
        if b.get("deopt"):
            out.append("")
            out.append(f"Deopt cause: `{b['deopt'].get('error')}` — "
                       f"{b['deopt'].get('message')}")
        out.append("")

    out.append("## Bound-by verdicts")
    out.append("")
    rows = []
    for task, v in report["verdicts"].items():
        groups = v["stall_cycles_by_group"]
        rows.append([
            f"`{task}`", f"**{v['bound_by']}**",
            v["stall_cycles_total"],
            groups.get("memory-bound", 0),
            groups.get("compute-bound", 0),
            groups.get("backpressure-bound", 0),
            groups.get("task-queue-bound", 0),
        ])
    out.extend(_md_table(
        ["task block", "verdict", "stall cyc", "mem", "compute",
         "backpr", "queue"], rows))
    out.append("")

    out.append("## Top stalled source lines")
    out.append("")
    if sim["top_sources"]:
        out.extend(_md_table(
            ["source", "cause", "cycles"],
            [[f"`{e['loc']}`", e["cause"], e["cycles"]]
             for e in sim["top_sources"]]))
    else:
        out.append("(no attributed source-line stalls)")
    out.append("")

    if sim["counters"]:
        out.append("## Hardware performance counters")
        out.append("")
        for bank, counters in sim["counters"].items():
            out.append(f"### bank `{bank}`")
            out.append("")
            out.extend(_md_table(
                ["counter", "value"],
                [[f"`{n}`", v] for n, v in counters.items()]))
            out.append("")

    out.append("## Optimization passes")
    out.append("")
    if opt["passes"]:
        out.extend(_md_table(
            ["pass", "changed", "dN", "dE", "ms"],
            [[p["name"], p["changed"],
              p["nodes_added"] - p["nodes_removed"],
              p["edges_added"] - p["edges_removed"],
              p["wall_ms"]] for p in opt["passes"]]))
    else:
        out.append("(baseline: no passes applied)")
    out.append("")

    out.append("## Synthesis estimate")
    out.append("")
    row = synth["table2_row"]
    out.extend(_md_table(list(row.keys()), [list(row.values())]))
    pmu = synth["pmu_overhead"]
    if pmu["counters"]:
        out.append("")
        out.append(f"PMU overhead: {pmu['counters']} counters, "
                   f"{pmu['alms']} ALMs, {pmu['regs']} regs, "
                   f"{pmu['area_kum2']} kum2 ASIC area "
                   f"(included in the totals above).")
    out.append("")

    tele = report.get("telemetry")
    if tele:
        out.append("## Telemetry")
        out.append("")
        if tele["stages_ms"]:
            out.extend(_md_table(
                ["stage", "wall ms"],
                [[f"`{name}`", ms]
                 for name, ms in sorted(tele["stages_ms"].items())]))
            out.append("")
        out.append(f"{tele['spans']} spans recorded; "
                   f"{len(tele['metrics']['metrics'])} metric(s).")
        out.append("")
    return "\n".join(out)


def dump_report(report: Dict, json_path: Optional[str] = None,
                md_path: Optional[str] = None) -> None:
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    if md_path:
        with open(md_path, "w") as fh:
            fh.write(render_markdown(report))


# -- design-space exploration rendering -------------------------------------

def render_explore_markdown(doc: Dict) -> str:
    """Markdown report for a ``repro.explore/v2`` document.

    Takes the JSON form (:meth:`repro.dse.ExploreReport.to_json`), so
    it renders saved reports as well as live ones.
    """
    counts = doc["counts"]
    out: List[str] = []
    out.append(f"# Design-space exploration: {doc['workload']} "
               f"(variant={doc['variant']})")
    out.append("")
    out.append(f"{counts['points']} points — {counts['ok']} ok, "
               f"{counts['failed']} failed, "
               f"{counts['cache_hits']} from cache, "
               f"{counts['fresh']} fresh — in "
               f"{doc['wall_s']:.2f}s with {doc['workers']} worker(s) "
               f"on the `{doc['sim']['kernel']}` kernel.")
    if doc.get("template"):
        out.append("")
        out.append(f"Pipeline template: `{doc['template']}`")
    cache = doc.get("cache")
    if cache:
        out.append("")
        out.append(f"Result cache: {cache.get('object_hits', 0)} "
                   f"object hits, {cache.get('object_misses', 0)} "
                   f"misses, {cache.get('object_corrupt', 0)} corrupt; "
                   f"{cache.get('index_hits', 0)} request-index hits, "
                   f"{cache.get('index_misses', 0)} index misses.")
    durability = doc.get("durability") or {}
    if any(durability.values()) or doc.get("sweep_id"):
        out.append("")
        out.append("## Durability")
        out.append("")
        if doc.get("sweep_id"):
            out.append(f"Sweep journal `{doc['sweep_id']}` "
                       f"(`repro sweeps show {doc['sweep_id']}`; "
                       f"resumable with `repro explore --resume "
                       f"{doc['sweep_id']}`).")
            out.append("")
        out.append(f"{durability.get('retries', 0)} retries, "
                   f"{durability.get('worker_deaths', 0)} worker "
                   f"deaths, {durability.get('timeouts', 0)} "
                   f"supervisor timeouts, "
                   f"{durability.get('quarantined', 0)} quarantined "
                   f"poison points, "
                   f"{durability.get('lease_reclaims', 0)} lease "
                   f"reclaims, {durability.get('resumed', 0)} points "
                   f"restored from the journal.")
    out.append("")

    axes = sorted({k for p in doc["points"] for k in p["params"]})
    ok_points = [p for p in doc["points"] if p["status"] == "ok"]
    if ok_points:
        out.append("## Evaluated points")
        out.append("")
        rows = []
        pareto = set(doc["pareto"])
        for p in ok_points:
            rows.append(
                [p["params"].get(a, "") for a in axes]
                + [p["cycles"], f"{p['time_us']:.2f}", p["alms"],
                   round(p["fpga_mw"]), p["source"],
                   "*" if p["index"] in pareto else ""])
        out.extend(_md_table(
            axes + ["cycles", "time_us", "ALMs", "mW", "source",
                    "pareto"], rows))
        out.append("")

        out.append("## Pareto frontier "
                   f"({' / '.join(doc['objectives'])}, minimized)")
        out.append("")
        by_index = {p["index"]: p for p in ok_points}
        rows = []
        for index in doc["pareto"]:
            p = by_index[index]
            rows.append([p["params"].get(a, "") for a in axes]
                        + [f"{p['time_us']:.2f}", p["alms"],
                           round(p["fpga_mw"])])
        out.extend(_md_table(axes + ["time_us", "ALMs", "mW"], rows))
        out.append("")

    failures = [p for p in doc["points"] if p["status"] != "ok"]
    if failures:
        out.append("## Failed points")
        out.append("")
        rows = []
        for p in failures:
            err = p.get("error") or {}
            rows.append(
                [p["params"].get(a, "") for a in axes]
                + [err.get("error", "?"), err.get("exit_code", ""),
                   str(err.get("message", ""))[:80]])
        out.extend(_md_table(axes + ["error", "exit", "message"],
                             rows))
        out.append("")
        for p in failures:
            diags = (p.get("error") or {}).get("diagnostics")
            if diags:
                out.append(f"### point {p['index']} diagnostics")
                out.append("")
                for diag in (diags if isinstance(diags, list)
                             else [diags]):
                    out.append(f"- {diag}")
                out.append("")
    return "\n".join(out)
