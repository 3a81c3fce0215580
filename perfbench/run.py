"""The repo benchmark: end-to-end and per-layer numbers of the toolflow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval-sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with every instrument off; ``--trace 1`` gives the per-layer metrics
from a traced run (telemetry spans, then cProfile).  Every op's output
is checked; the last stdout line is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  The program is imported from
``src/`` of the same checkout and nowhere else.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("eval-sim", "sweep-cold", "serve-mix")


def bench_class(workload: str):
    if workload == "eval-sim":
        from eval_sim import EvalSim
        return EvalSim
    if workload == "sweep-cold":
        from sweep_cold import SweepCold
        return SweepCold
    from serve_mix import ServeMix
    return ServeMix


def traced(bench, seconds: float):
    """Span phase, then two equal profiled halves; returns (metrics,
    samples, problems).  The exact counters must agree between the
    halves."""
    from repro import telemetry
    import common
    host = common.HostSpeed()
    telemetry.enable()
    try:
        metrics, samples = bench.span_phase(seconds / 2, host)
    finally:
        telemetry.disable()
    metrics["host.speed_factor"] = host.factor
    first = common.profile_half(bench, budget_s=seconds / 4)
    second = common.profile_half(bench, passes=first.passes)
    problems = common.mismatches(
        common.exact_counters(common.ProfileSplit(first.profile),
                              first.tap),
        common.exact_counters(common.ProfileSplit(second.profile),
                              second.tap))
    profiled = first.samples + second.samples
    metrics.update(common.profile_metrics(
        common.ProfileSplit(first.profile, second.profile),
        first.tap.plus(second.tap), len(profiled)))
    metrics["profiled.ops_per_s"] = len(profiled) / (first.wall_s
                                                     + second.wall_s)
    metrics["accel_cycles"] = float(bench.accel_cycles)
    metrics["accel_alms"] = float(bench.accel_alms)
    return metrics, samples + profiled, problems


def run_one(args) -> int:
    sys.path[:0] = [HERE, SRC]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    import common
    cls = bench_class(args.workload)
    if args.setup_probe:
        work = os.path.join(args.work, f"probe-{os.getpid()}")
        os.makedirs(work)
        try:
            cls(args.seed, work).probe()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    bench = None
    problems = []
    raw = {}
    try:
        bench = cls(args.seed, work)
        setup_host = common.HostSpeed()
        setup_s = statistics.median(bench.setup(setup_host))
        bench.warm_up()
        if args.trace:
            metrics, samples, problems = traced(bench, args.seconds)
        else:
            host = common.HostSpeed()
            log = bench.run(args.seconds, host)
            samples = log.samples
            bench.close()   # reaped children count in peak_rss_mb
            metrics, raw = common.end_to_end(log, setup_s, host,
                                             setup_host)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    for name in missing:
        metrics[name] = 0.0     # a layer this workload never enters
    if extra:
        print(f"perfbench: metrics missing from BENCHMARK.json: "
              f"{sorted(extra)}", file=sys.stderr)
        return 1
    failures = [s.error for s in samples if s.error is not None]
    for error in failures[:5]:
        print(f"FAILED: {error}")
    for problem in problems:
        print(f"NOT EXACT: {problem}")
    print(f"{args.workload}: {len(samples)} ops, error_rate = "
          f"{len(failures) / max(1, len(samples)):.4f}"
          + (f" ({len(missing)} layer metrics not entered: 0)"
             if args.trace and missing else ""))
    if raw:
        print(f"  host speed factor {host.factor:.4f} (set-up "
              f"{setup_host.factor:.4f}); figures below are at nominal "
              f"host speed, wall-clock figures in brackets")
    for name in units:
        measured = f" [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {name} = {metrics[name]:.6g}{measured} {units[name]}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table and one line."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
