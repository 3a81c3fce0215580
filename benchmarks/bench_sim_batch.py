#!/usr/bin/env python
"""Batched-simulation throughput benchmark.

Measures workload simulations per wall-second when one compiled
circuit steps N independent lanes at once (``simulate_batch``) versus
sequential compiled runs, at batch sizes 1 / 4 / 16.  The headline
number is the geomean batch-16 speedup over sequential — that is what
CI gates on (geomean, not per-workload: single workloads swing several
points with machine noise; the geomean is the stable signal).

Methodology follows bench_sim_throughput.py:

* **Interleaved** timing — one iteration of every batch size per
  round, repeated, taking the per-size minimum, so the minima see the
  same machine state.
* **Circuit built once** per workload and reused, as in real DSE
  usage.
* Per-lane inputs perturbed in their float words so the payload
  genuinely diverges across lanes (the vectorized path is the one
  being measured, not a degenerate all-identical batch), while the
  control stays uniform.
* Fresh memory per lane per run, ``observe="off"``, ``validate=False``.

Usage:
    PYTHONPATH=src python benchmarks/bench_sim_batch.py \
        [--workloads gemm,fft,saxpy,stencil] [--batches 1,4,16] \
        [--repeat 3] [--min-batch-speedup 2.0] [--json FILE]

Exits non-zero if the geomean batch-16 (largest requested batch)
speedup over sequential falls below ``--min-batch-speedup``, or if any
batched run fails to stay in vectorized mode or drops a lane.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from repro.frontend.translate import translate_module
from repro.sim.engine import SimParams, simulate, simulate_batch
from repro.workloads import WORKLOADS

BENCH_SCHEMA = "repro.bench_sim_batch/v2"
DEFAULT_WORKLOADS = "gemm,fft,saxpy,stencil"
DEFAULT_BATCHES = "1,4,16"
DEFAULT_JSON = os.path.join(os.path.dirname(__file__), "results",
                            "BENCH_sim_batch.json")


def fresh_lanes(w, n: int, seed: int = 7):
    """N per-lane memories with diverging float payloads."""
    rng = random.Random(seed)
    lanes = []
    for _ in range(n):
        mem = w.fresh_memory()
        for i, v in enumerate(mem.words):
            if type(v) is float and rng.random() < 0.4:
                mem.words[i] = float(rng.randrange(-50, 50))
        lanes.append(mem)
    return lanes


def run_sequential(w, circuit, n: int):
    """N back-to-back compiled runs; returns (sims, wall_seconds)."""
    lanes = fresh_lanes(w, n)
    args = list(w.args_for())
    params = SimParams(kernel="compiled", observe="off", validate=False)
    t0 = time.perf_counter()
    for mem in lanes:
        simulate(circuit, mem, list(args), params)
    return n, time.perf_counter() - t0


def run_batched(w, circuit, n: int):
    """One batch-of-N run; returns (sims, wall_seconds, mode)."""
    lanes = fresh_lanes(w, n)
    args = list(w.args_for())
    params = SimParams(kernel="compiled", observe="off", validate=False)
    t0 = time.perf_counter()
    res = simulate_batch(circuit, lanes, [list(args)] * n, params)
    wall = time.perf_counter() - t0
    if not res.ok:
        raise RuntimeError(f"batch run dropped a lane: {res.errors}")
    return n, wall, res.mode


def bench_workload(name: str, batches, repeat: int):
    """Interleaved best-of-``repeat`` walls for sequential + batches."""
    w = WORKLOADS[name]
    circuit = translate_module(w.module(), name=f"{name}_bsbench")
    seq_n = max(batches)
    best_seq = None
    best = {n: None for n in batches}
    modes = {}
    run_sequential(w, circuit, seq_n)       # warm-up (compile, caches)
    for n in batches:
        run_batched(w, circuit, n)
    for _ in range(repeat):
        _, wall = run_sequential(w, circuit, seq_n)
        if best_seq is None or wall < best_seq:
            best_seq = wall
        for n in batches:
            _, wall, mode = run_batched(w, circuit, n)
            modes[n] = mode
            if best[n] is None or wall < best[n]:
                best[n] = wall
    return seq_n, best_seq, best, modes


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
    ap.add_argument("--batches", default=DEFAULT_BATCHES,
                    help="comma-separated batch sizes; the largest is "
                         "the gated one")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--min-batch-speedup", type=float, default=0.0,
                    help="fail if the geomean largest-batch speedup "
                         "over sequential is below this")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help=f"write results as JSON (default when run "
                         f"with no flag: nothing; pass 'default' for "
                         f"{DEFAULT_JSON})")
    args = ap.parse_args(argv)

    batches = sorted({int(b) for b in args.batches.split(",") if b.strip()})
    if not batches or min(batches) < 1:
        ap.error("--batches must name positive integers")
    top = max(batches)

    rows = []
    failed = []
    for name in args.workloads.split(","):
        name = name.strip()
        seq_n, seq_wall, walls, modes = bench_workload(
            name, batches, args.repeat)
        seq_sps = seq_n / seq_wall
        row = {
            "workload": name,
            "sequential": {"sims": seq_n,
                           "wall_s": round(seq_wall, 4),
                           "sims_per_s": round(seq_sps, 2)},
            "batched": {},
        }
        parts = [f"{name}: seq {seq_sps:,.1f} sims/s"]
        for n in batches:
            sps = n / walls[n]
            speedup = sps / seq_sps
            row["batched"][str(n)] = {
                "wall_s": round(walls[n], 4),
                "sims_per_s": round(sps, 2),
                "speedup": round(speedup, 3),
                "mode": modes[n],
            }
            parts.append(f"b{n} {sps:,.1f} sims/s "
                         f"({speedup:.2f}x, {modes[n]})")
            if n > 1 and modes[n] != "vectorized":
                failed.append(f"{name}: batch {n} ran in "
                              f"{modes[n]!r} mode, not vectorized")
        rows.append(row)
        print(" | ".join(parts))

    top_speedups = [r["batched"][str(top)]["speedup"] for r in rows]
    summary = {
        "batch": top,
        "speedup_geomean": round(geomean(top_speedups), 3),
    }
    print(f"geomean batch-{top} speedup "
          f"{summary['speedup_geomean']:.2f}x")
    gate = args.min_batch_speedup
    if gate and summary["speedup_geomean"] < gate:
        failed.append(f"geomean batch-{top} speedup "
                      f"{summary['speedup_geomean']:.2f}x < {gate}x")

    json_path = DEFAULT_JSON if args.json == "default" else args.json
    if json_path:
        os.makedirs(os.path.dirname(json_path) or ".", exist_ok=True)
        doc = {
            "schema": BENCH_SCHEMA,
            "batches": batches,
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
