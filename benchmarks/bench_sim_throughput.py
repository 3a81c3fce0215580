#!/usr/bin/env python
"""Simulation-kernel throughput benchmark.

Runs selected workloads under the simulation kernels (dense reference
sweep, event-driven wakeup kernel, compiled step-closure kernel) and
reports simulated cycles per wall-second plus the pairwise speedups.

Methodology (what several rounds of container benchmarking taught):

* **Interleaved** timing — one iteration of every kernel per round,
  repeated, taking the per-kernel minimum.  Back-to-back blocks per
  kernel read 30-60% run-to-run noise on shared machines; interleaving
  makes the minima see the same machine state.
* **Circuit built once** per workload and reused across runs, the
  real usage pattern (DSE evaluates one circuit many times), so the
  timings hold simulations, not front ends.  The compiled kernel
  builds its plan in every run, as it always does.
* Fresh memory per run, ``observe="off"``, ``validate=False`` so the
  measurement is the kernel loop, not instrumentation.

Usage:
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        [--workloads gemm,fft,saxpy,stencil] [--config allopts] \
        [--kernels dense,event,compiled] [--repeat 5] \
        [--min-speedup 1.0] [--min-compiled-speedup 1.0] [--json FILE]

Exits non-zero if any workload's event/dense speedup falls below
``--min-speedup``, or if the *geomean* compiled/event speedup falls
below ``--min-compiled-speedup`` (geomean, not per-workload: single
workloads swing several points with machine noise; the geomean is the
stable signal CI can gate on).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from repro.workloads import WORKLOADS
from repro.bench.configs import all_opts_for
from repro.frontend.translate import translate_module
from repro.opt.pass_manager import PassManager
from repro.sim.engine import SimParams, simulate

BENCH_SCHEMA = "repro.bench_sim_throughput/v2"
DEFAULT_WORKLOADS = "gemm,fft,saxpy,stencil"
DEFAULT_KERNELS = "dense,event,compiled"
DEFAULT_JSON = os.path.join(os.path.dirname(__file__), "results",
                            "BENCH_sim_throughput.json")


def build_circuit(name: str, config: str):
    w = WORKLOADS[name]
    passes = [] if config == "baseline" else all_opts_for(name)
    circuit = translate_module(w.module(), name=f"{name}_{config}")
    PassManager(list(passes)).run(circuit)
    return w, circuit


def run_once(w, circuit, kernel: str):
    """One timed simulation; returns (cycles, wall_seconds)."""
    mem = w.fresh_memory()
    params = SimParams(kernel=kernel, observe="off", validate=False)
    t0 = time.perf_counter()
    res = simulate(circuit, mem, list(w.args_for()), params)
    return res.cycles, time.perf_counter() - t0


def bench_workload(name: str, config: str, kernels, repeat: int):
    """Interleaved best-of-``repeat`` walls for every kernel."""
    w, circuit = build_circuit(name, config)
    cycles = None
    best = {k: None for k in kernels}
    for k in kernels:          # warm-up round (compile, caches, JIT-y
        run_once(w, circuit, k)  # bytecode specialization)
    for _ in range(repeat):
        for k in kernels:
            c, wall = run_once(w, circuit, k)
            cycles = c
            if best[k] is None or wall < best[k]:
                best[k] = wall
    return cycles, best


def geomean(values) -> float:
    vals = [v for v in values if v is not None]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=DEFAULT_WORKLOADS)
    ap.add_argument("--config", default="allopts",
                    choices=("baseline", "allopts"))
    ap.add_argument("--kernels", default=DEFAULT_KERNELS,
                    help="comma-separated subset of dense,event,compiled")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="fail if any per-workload event/dense speedup "
                         "is below this")
    ap.add_argument("--min-compiled-speedup", type=float, default=0.0,
                    help="fail if the geomean compiled/event speedup "
                         "is below this")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help=f"write results as JSON (default when run "
                         f"with no flag: nothing; pass 'default' for "
                         f"{DEFAULT_JSON})")
    args = ap.parse_args(argv)

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    for k in kernels:
        if k not in ("dense", "event", "compiled"):
            ap.error(f"unknown kernel {k!r}")

    rows = []
    failed = []
    for name in args.workloads.split(","):
        name = name.strip()
        cycles, walls = bench_workload(name, args.config, kernels,
                                       args.repeat)
        row = {
            "workload": name,
            "config": args.config,
            "cycles": cycles,
            "wall_s": {k: round(w, 4) for k, w in walls.items()},
            "cps": {k: round(cycles / w) for k, w in walls.items()},
        }
        if "dense" in walls and "event" in walls:
            row["event_over_dense"] = round(
                walls["dense"] / walls["event"], 3)
        if "event" in walls and "compiled" in walls:
            row["compiled_over_event"] = round(
                walls["event"] / walls["compiled"], 3)
        rows.append(row)
        parts = [f"{name}/{args.config}: {cycles} cycles"]
        for k in kernels:
            parts.append(f"{k} {walls[k]:.3f}s "
                         f"({cycles / walls[k]:,.0f} cyc/s)")
        if "event_over_dense" in row:
            s = row["event_over_dense"]
            flag = ""
            if args.min_speedup and s < args.min_speedup:
                failed.append(f"{name}: event/dense {s:.2f}x "
                              f"< {args.min_speedup}x")
                flag = f"  << below {args.min_speedup}x"
            parts.append(f"event/dense {s:.2f}x{flag}")
        if "compiled_over_event" in row:
            parts.append(
                f"compiled/event {row['compiled_over_event']:.2f}x")
        print(" | ".join(parts))

    summary = {
        "event_over_dense": round(geomean(
            r.get("event_over_dense") for r in rows), 3) or None,
        "compiled_over_event": round(geomean(
            r.get("compiled_over_event") for r in rows), 3) or None,
    }
    shown = [f"geomean {k.replace('_over_', '/')} {v:.2f}x"
             for k, v in summary.items() if v]
    if shown:
        print(" | ".join(shown))
    gate = args.min_compiled_speedup
    if gate and summary["compiled_over_event"] is not None \
            and summary["compiled_over_event"] < gate:
        failed.append(f"geomean compiled/event "
                      f"{summary['compiled_over_event']:.2f}x < {gate}x")

    json_path = DEFAULT_JSON if args.json == "default" else args.json
    if json_path:
        os.makedirs(os.path.dirname(json_path) or ".", exist_ok=True)
        doc = {
            "schema": BENCH_SCHEMA,
            "config": args.config,
            "kernels": kernels,
            "repeat": args.repeat,
            "rows": rows,
            "geomean": summary,
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_path}")
    for msg in failed:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
