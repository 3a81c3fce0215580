"""Throughput regression gate (the ``repro bench --check`` command).

Re-measures simulation-kernel throughput with the committed
methodology (interleaved best-of-N, circuit built once, observability
off — see ``benchmarks/bench_sim_throughput.py``) and diffs the
result against the committed baseline
``benchmarks/results/BENCH_sim_throughput.json``.

Two checks, by strength:

* **cycles** (hard) — simulation is deterministic, so each workload's
  simulated cycle count must match the committed row exactly; a drift
  here is a semantic change, not noise.
* **speedup geomean** (thresholded) — absolute wall times do not
  transfer between machines, but the *relative* kernel speedup
  (compiled/dense) does.  The fresh geomean must stay within
  ``threshold`` (default 20%) of the committed geomean.

This is how the telemetry acceptance criterion is enforced: with
telemetry disabled, instrumented hot paths must not drag the geomean
below the committed baseline's band.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..frontend import translate_module
from ..opt import PassManager
from ..sim import SimParams, simulate
from ..workloads import WORKLOADS
from .configs import all_opts_for

CHECK_SCHEMA = "repro.bench-check/v1"
DEFAULT_BASELINE = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "..",
    "benchmarks", "results", "BENCH_sim_throughput.json"))
DEFAULT_THRESHOLD = 0.2

#: The geomean columns the committed baseline carries, and the wall
#: columns each ratio is built from (numerator kernel runs *faster*).
RATIOS = {"compiled_over_dense": ("dense", "compiled")}


def _geomean(values: Sequence[float]) -> Optional[float]:
    vals = [v for v in values if v]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _measure(workload: str, config: str, kernels: Sequence[str],
             repeat: int) -> Dict:
    """Interleaved best-of-``repeat`` walls, committed methodology."""
    w = WORKLOADS[workload]
    passes = [] if config == "baseline" else all_opts_for(workload)
    circuit = translate_module(w.module(), name=f"{workload}_{config}")
    PassManager(list(passes)).run(circuit)

    def once(kernel: str):
        mem = w.fresh_memory()
        params = SimParams(kernel=kernel, observe="off",
                           validate=False)
        t0 = time.perf_counter()
        res = simulate(circuit, mem, list(w.args_for()), params)
        return res.cycles, time.perf_counter() - t0

    cycles = None
    best: Dict[str, Optional[float]] = {k: None for k in kernels}
    for k in kernels:                      # warm-up (compile, caches)
        once(k)
    for _ in range(repeat):
        for k in kernels:
            c, wall = once(k)
            cycles = c
            if best[k] is None or wall < best[k]:
                best[k] = wall
    row: Dict = {"workload": workload, "cycles": cycles,
                 "wall_s": {k: round(v, 4) for k, v in best.items()}}
    for name, (slow, fast) in RATIOS.items():
        if slow in best and fast in best:
            row[name] = round(best[slow] / best[fast], 3)
    return row


def check_throughput(baseline_path: Optional[str] = None, *,
                     workloads: Optional[Sequence[str]] = None,
                     repeat: int = 3,
                     threshold: float = DEFAULT_THRESHOLD) -> Dict:
    """Measure fresh, diff against the committed baseline.

    Returns the check document (``ok``, per-check ``failures``, fresh
    and committed rows/geomeans).  Raises :class:`ReproError` when the
    baseline file is missing or unreadable — an absent baseline is a
    configuration error, not a pass.
    """
    path = baseline_path or DEFAULT_BASELINE
    try:
        with open(path) as fh:
            committed = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(
            f"cannot read committed benchmark baseline {path}: {exc}")
    if not str(committed.get("schema", "")).startswith(
            "repro.bench_sim_throughput/"):
        raise ReproError(
            f"{path} is not a bench_sim_throughput document "
            f"(schema={committed.get('schema')!r})")

    kernels = list(committed.get("kernels", ("dense", "compiled")))
    config = committed.get("config", "allopts")
    by_name = {r["workload"]: r for r in committed.get("rows", [])}
    names = list(workloads) if workloads else sorted(by_name)
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ReproError(
            f"workload(s) not in the committed baseline: "
            f"{', '.join(unknown)} (has: {', '.join(sorted(by_name))})")

    failures: List[str] = []
    rows: List[Dict] = []
    for name in names:
        row = _measure(name, config, kernels, repeat)
        rows.append(row)
        want = by_name[name].get("cycles")
        if want is not None and row["cycles"] != want:
            failures.append(
                f"{name}: simulated {row['cycles']} cycles, committed "
                f"baseline says {want} (determinism break)")

    geomean = {name: _geomean([r.get(name) for r in rows])
               for name in RATIOS}
    # Compare against the committed geomean of the *selected* rows, so
    # a workload subset is checked against its own band rather than
    # the whole suite's.
    committed_geomean = {
        name: _geomean([by_name[n].get(name) or 0.0 for n in names])
        for name in RATIOS}
    floor_factor = 1.0 - threshold
    for name, fresh in geomean.items():
        want = committed_geomean.get(name)
        if fresh is None or not want:
            continue
        floor = want * floor_factor
        if fresh < floor:
            failures.append(
                f"geomean {name.replace('_over_', '/')}: fresh "
                f"{fresh:.3f}x < {floor:.3f}x "
                f"(committed {want:.3f}x - {threshold:.0%})")

    return {
        "schema": CHECK_SCHEMA,
        "baseline": path,
        "config": config,
        "kernels": kernels,
        "repeat": repeat,
        "threshold": threshold,
        "rows": rows,
        "geomean": {k: (round(v, 3) if v else None)
                    for k, v in geomean.items()},
        "committed_geomean": {k: (round(v, 3) if v else None)
                              for k, v in committed_geomean.items()},
        "failures": failures,
        "ok": not failures,
    }


def render_check(doc: Dict) -> str:
    """Terminal summary of one check document."""
    lines = [f"bench check vs {doc['baseline']} "
             f"(threshold {doc['threshold']:.0%}):"]
    for row in doc["rows"]:
        bits = [f"  {row['workload']}: {row['cycles']} cycles"]
        for name in RATIOS:
            if name in row:
                bits.append(f"{name.replace('_over_', '/')} "
                            f"{row[name]:.2f}x")
        lines.append(" | ".join(bits))
    for name, fresh in doc["geomean"].items():
        if fresh is None:
            continue
        want = doc["committed_geomean"].get(name)
        vs = f" (committed {want:.2f}x)" if want else ""
        lines.append(f"  geomean {name.replace('_over_', '/')} "
                     f"{fresh:.2f}x{vs}")
    if doc["ok"]:
        lines.append("  OK: within the committed baseline's band")
    else:
        for msg in doc["failures"]:
            lines.append(f"  FAIL: {msg}")
    return "\n".join(lines)
