"""``sweep-cold``: ``repro.dse.explore()`` sweeps with a cold cache.

The op set is one sweep per kernel (spmv, dense16, covar, softm16),
each over the whole ``banks x tiles x sim.loop_invocation_window``
grid (36 points) rendered through the CLI's default explore template,
in an order the seed shuffles, so every seed asks for the same work.
Each sweep runs with ``workers=2`` and a fresh result-cache and
journal directory, so points are evaluated, not recalled; only
in-sweep duplicates (equal circuits) hit the cache.  An op is one
design point.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
from typing import Dict, List

from common import Bench, BenchError, Sample, closed_loop, op_stream

KERNELS = ("spmv", "dense16", "covar", "softm16")
BANKS = (1, 2, 4, 8)
TILES = (1, 2, 4)
WINDOWS = (1, 2, 4)
WORKERS = 2


def _point_key(kernel: str, params: Dict) -> tuple:
    return (kernel,) + tuple(sorted(params.items()))


class SweepCold(Bench):
    name = "sweep-cold"

    def __init__(self, seed: int, work: str):
        self._sweeps = 0
        super().__init__(seed, work)

    def make_ops(self) -> List:
        rng = random.Random(f"{self.seed}:space")
        ops = []
        for kernel in KERNELS:
            points = [{"banks": b, "tiles": t,
                       "sim.loop_invocation_window": w}
                      for b in BANKS for t in TILES for w in WINDOWS]
            rng.shuffle(points)
            ops.append((kernel, points))
        return ops

    def sweep(self, op, workers: int, host=None):
        """One explore() over ``op`` with fresh cache + journal dirs;
        ``host`` is sampled as points complete."""
        from repro.cli import DEFAULT_EXPLORE_TEMPLATE
        from repro.dse import explore
        kernel, points = op
        self._sweeps += 1
        root = os.path.join(self.work, f"sweep-{self._sweeps}")
        try:
            return explore(kernel, points,
                           pipeline=DEFAULT_EXPLORE_TEMPLATE,
                           workers=workers,
                           cache=os.path.join(root, "cache"),
                           journal=os.path.join(root, "sweeps"),
                           check=True,
                           progress=host and (lambda _p: host.sample()))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def probe(self) -> None:
        self.sweep(self.ops[0], WORKERS)

    def warm_up(self) -> None:
        self.reference: Dict[tuple, int] = {}
        for op in self.ops:
            for p in self.sweep(op, WORKERS).points:
                if not p.ok or p.verified is not True:
                    raise BenchError(f"warm-up {op[0]}: {p.describe()}")
                self.reference[_point_key(op[0], p.params)] = p.cycles
                self.accel_cycles += p.cycles
                self.accel_alms += p.synth["alms"]

    def _samples(self, kernel: str, report) -> List[Sample]:
        samples = []
        for p in report.points:
            error = None
            if not p.ok:
                error = p.describe()
            elif p.verified is not True:
                error = f"{kernel} {p.params}: golden check did not pass"
            elif p.cycles != self.reference[_point_key(kernel, p.params)]:
                error = f"{kernel} {p.params}: {p.cycles} cycles, " \
                        f"{self.reference[_point_key(kernel, p.params)]} " \
                        f"at warm-up"
            samples.append(Sample(p.wall_s, p.cycles or 0, error))
        return samples

    def run(self, seconds: float, host):
        return closed_loop(
            op_stream(self.seed, self.ops),
            lambda op: self._samples(op[0], self.sweep(op, WORKERS, host)),
            seconds, host=host, pass_len=len(self.ops))

    def run_op(self, op) -> List[Sample]:
        return self._samples(op[0], self.sweep(op, WORKERS))

    def direct_op(self, op) -> List[Sample]:
        return self._samples(op[0], self.sweep(op, 1))

    def span_phase(self, seconds: float, host):
        """Serial in-process sweeps (``workers=1``), so the telemetry
        spans of every stage land in this process."""
        reports = []

        def do_op(op):
            report = self.sweep(op, 1)
            reports.append(report)
            return self._samples(op[0], report)

        log = closed_loop(op_stream(self.seed, self.ops), do_op, seconds,
                          host=host)
        points = [p for r in reports for p in r.points]
        point_wall = sum(p.wall_s for p in points)
        metrics = {
            "traced.ops_per_s": len(log.ok) / log.elapsed_s,
            "dse.point_ms": statistics.median(p.wall_s for p in points)
            * 1e3,
            "dse.overhead_frac": 1.0 - point_wall
            / sum(r.wall_s for r in reports),
            "dse.cache_hit_frac": sum(p.cached for p in points)
            / len(points),
            **self.stage_split(log.ok, executions=len(points),
                               exec_s=point_wall),
        }
        return metrics, log.samples
