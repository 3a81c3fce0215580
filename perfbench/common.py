"""Shared machinery of the repo benchmark.

Every workload (``eval_sim``, ``sweep_cold``, ``serve_mix``) is a
:class:`Bench`: a seeded, finite *op set* (one "pass"), replayed in
seeded orders by closed-loop callers.  This module owns what they
share: the closed loop, the percentile math, peak memory, and the two
instruments of a traced run —

* telemetry spans (``repro.telemetry``), summed by stage name;
* ``cProfile`` (builtins included), grouped by ``src/repro`` module,
  with builtin self time charged to the module that called it.

Nothing here changes the program: the only hook into it is
:class:`SimTap`, which wraps the two simulate entry points the
``repro.api`` module calls, to read each run's ``SimStats``.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro") + os.sep
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")

#: Simulator modules whose self time, share and calls are reported one
#: by one (``sim.<mod>.*``); together with the rest of ``repro.sim``
#: they make up "sim self time".
SIM_MODULES = ("engine", "task", "nodesim", "channel", "memory",
               "events", "observe", "compile")

#: Telemetry span names summed into the per-op stage split.
STAGE_SPANS = {
    "frontend.ms": ("pipeline.frontend",),
    "opt.ms": ("pipeline.optimize",),
    "sim.ms": ("pipeline.simulate", "pipeline.simulate_batch"),
    "verify.ms": ("pipeline.verify",),
    "synth.ms": ("pipeline.synthesize",),
}

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: CPU time of one :func:`reference_loop` on an uncontended host (a
#: 2.0 GHz vCPU).  Wall-clock end-to-end metrics are reported at this
#: host speed; see :class:`HostSpeed`.
REF_NOMINAL_S = 0.002
#: The reference loop runs before an op at most this often.
HOST_SAMPLE_EVERY_S = 0.2


class BenchError(Exception):
    """The benchmark itself could not run (not an op failure)."""


# ---------------------------------------------------------------------------
# Samples and the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One completed op: host latency, simulated cycles it delivered,
    and an error message when it failed or its output check did."""

    latency_s: float
    cycles: int = 0
    error: Optional[str] = None


@dataclass
class OpLog:
    samples: List[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if s.error is None]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (a value that was measured)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def pass_order(seed: int, index: int, ops: Sequence) -> List:
    """Pass ``index`` of the op set, shuffled by the workload seed."""
    order = list(ops)
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def op_stream(seed: int, ops: Sequence) -> Iterator:
    """Endless op sequence: pass 0, pass 1, ... each seeded-shuffled."""
    index = 0
    while True:
        yield from pass_order(seed, index, ops)
        index += 1


def reference_loop() -> int:
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the host runs Python right now.

    A shared host's speed drifts by tens of percent within seconds
    (another tenant on the sibling hyperthread), and slower host
    cycles show in CPU time as well as wall time.  So a fixed
    pure-Python loop, which uses no code of the program, is timed in
    the calling thread's CPU time between ops; :attr:`factor` is its
    mean over :data:`REF_NOMINAL_S`.  Dividing a wall time by the
    factor (multiplying a rate) gives the figure at nominal host speed.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._next = 0.0
        self._lock = threading.Lock()

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        with self._lock:
            if not force and now < self._next:
                return
            self._next = now + HOST_SAMPLE_EVERY_S
        t0 = time.thread_time()
        reference_loop()
        self.samples.append(time.thread_time() - t0)

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.mean(self.samples) / REF_NOMINAL_S


def closed_loop(ops: Iterator, do_op: Callable[[object], List[Sample]],
                seconds: float, clients: int = 1,
                host: Optional[HostSpeed] = None,
                pass_len: int = 0) -> OpLog:
    """``clients`` callers, each waiting for its reply before taking
    the next op, until ``seconds`` have passed and, with ``pass_len``,
    a whole number of passes has been sent (so every run does the same
    mix of ops).  ``do_op`` returns the samples of one op (a sweep
    yields one per design point); ``host`` is sampled between ops."""
    log = OpLog()
    lock = threading.Lock()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    last_end = [t0]
    sent = [0]
    crashed: List[BaseException] = []

    def caller():
        try:
            while True:
                if host is not None:
                    host.sample()
                with lock:
                    if time.perf_counter() >= deadline and (
                            not pass_len or sent[0] % pass_len == 0):
                        return
                    sent[0] += 1
                    op = next(ops)
                samples = do_op(op)
                end = time.perf_counter()
                with lock:
                    log.samples.extend(samples)
                    last_end[0] = max(last_end[0], end)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            crashed.append(exc)

    if clients == 1:
        caller()
    else:
        threads = [threading.Thread(target=caller, name=f"caller-{i}")
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if crashed:
        raise crashed[0]
    log.elapsed_s = last_end[0] - t0
    return log


def end_to_end(log: OpLog, setup_s: float, host: HostSpeed,
               setup_host: HostSpeed):
    """The user-visible metrics of one untraced run, at nominal host
    speed, and the same figures as measured on the wall clock."""
    ok = log.ok
    latencies = [s.latency_s for s in ok]
    elapsed = max(log.elapsed_s, 1e-9)
    raw = {
        "ops_per_s": len(ok) / elapsed,
        "latency_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
        "sim_cycles_per_s": sum(s.cycles for s in ok) / elapsed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    f = host.factor
    nominal = {
        "ops_per_s": raw["ops_per_s"] * f,
        "latency_p50_ms": raw["latency_p50_ms"] / f,
        "latency_p90_ms": raw["latency_p90_ms"] / f,
        "sim_cycles_per_s": raw["sim_cycles_per_s"] * f,
        "setup_s": setup_s / setup_host.factor,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return nominal, raw


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe_setup(workload: str, seed: int, work: str,
                host: HostSpeed) -> List[float]:
    """Time :data:`SETUP_SAMPLES` fresh interpreters, each importing
    the toolchain and warming up (``run.py --setup-probe``)."""
    times = []
    for _ in range(SETUP_SAMPLES):
        host.sample(force=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload,
             "--seed", str(seed), "--setup-probe", "--work", work],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60)
        if proc.returncode != 0:
            raise BenchError(
                f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# The workload interface
# ---------------------------------------------------------------------------

class Bench:
    """One workload: a seeded op set plus how to run and check an op."""

    name = ""
    clients = 1

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.ops: List = self.make_ops()
        #: One pass over the op set: total simulated cycles and ALMs of
        #: the modelled designs (filled by :meth:`warm_up`).
        self.accel_cycles = 0
        self.accel_alms = 0

    # -- to implement ------------------------------------------------------
    def make_ops(self) -> List:
        raise NotImplementedError

    def setup(self, host: HostSpeed) -> List[float]:
        """Set up for the run; return the set-up time samples, sampling
        ``host`` before each."""
        return probe_setup(self.name, self.seed, self.work, host)

    def warm_up(self) -> None:
        """One untimed pass: fills caches, records reference outputs."""
        raise NotImplementedError

    def run_op(self, op) -> List[Sample]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # traced run: the direct (main-thread, in-process) path of one op,
    # profiled; and the span phase, which may differ from run().
    def direct_op(self, op) -> List[Sample]:
        return self.run_op(op)

    def probe(self) -> None:
        """What a set-up probe does after the imports."""
        self.warm_up()

    def span_phase(self, seconds: float, host: HostSpeed):
        """Telemetry-on closed loop; returns the per-layer metrics it
        measures (at least ``traced.ops_per_s`` and the stage split)
        and its samples."""
        log = self.run(seconds, host)
        return ({"traced.ops_per_s": len(log.ok) / log.elapsed_s,
                 **self.stage_split(log.ok, executions=len(log.ok))},
                log.samples)

    # -- helpers -----------------------------------------------------------
    def run(self, seconds: float, host: HostSpeed) -> OpLog:
        return closed_loop(op_stream(self.seed, self.ops), self.run_op,
                           seconds, self.clients, host, len(self.ops))

    @staticmethod
    def stage_split(samples: Sequence[Sample], *, executions: int,
                    exec_s: Optional[float] = None) -> Dict[str, float]:
        """Per-execution ms of each pipeline stage from the telemetry
        spans, plus ``doc.ms``: execution time outside every stage span
        (request keying, evaluation_doc, JSON encoding)."""
        from repro import telemetry
        totals: Dict[str, float] = {}
        for span in telemetry.tracer().finished():
            totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
        n = max(1, executions)
        out = {metric: sum(totals.get(name, 0.0) for name in names)
               * 1e3 / n for metric, names in STAGE_SPANS.items()}
        staged = sum(out.values()) * n / 1e3
        if exec_s is None:
            exec_s = sum(s.latency_s for s in samples)
        out["doc.ms"] = max(0.0, exec_s - staged) * 1e3 / n
        return out


# ---------------------------------------------------------------------------
# Traced-run instruments
# ---------------------------------------------------------------------------

class SimTap:
    """Reads every simulation's ``SimStats`` by wrapping the simulate
    entry points that :mod:`repro.api` calls (restored on exit)."""

    def __init__(self):
        self.cycles = 0
        self.node_fires = 0
        self.idle_cycles = 0

    def plus(self, other: "SimTap") -> "SimTap":
        out = SimTap()
        for name in ("cycles", "node_fires", "idle_cycles"):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def _add(self, result) -> None:
        stats = result.stats
        self.cycles += result.cycles
        self.node_fires += sum(stats.node_fires.values())
        self.idle_cycles += stats.idle_engine_cycles

    def __enter__(self) -> "SimTap":
        import repro.api as api
        self._api = api
        self._orig = (api.simulate, api.simulate_batch)
        simulate, simulate_batch = self._orig

        def tapped_simulate(*args, **kwargs):
            result = simulate(*args, **kwargs)
            self._add(result)
            return result

        def tapped_batch(*args, **kwargs):
            batch = simulate_batch(*args, **kwargs)
            for lane in batch.results:
                if lane is not None:
                    self._add(lane)
            return batch

        api.simulate, api.simulate_batch = tapped_simulate, tapped_batch
        return self

    def __exit__(self, *exc) -> bool:
        self._api.simulate, self._api.simulate_batch = self._orig
        return False


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/sim/task.py`` -> ``sim.task``; None outside."""
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):-3].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


class ProfileSplit:
    """One or more cProfile runs, grouped by ``src/repro`` module."""

    def __init__(self, *profiles: cProfile.Profile):
        raw = pstats.Stats(*profiles).stats
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.total_s = 0.0
        self.total_calls = 0
        self.wake_calls = 0
        self.heap_pushes = 0
        self._raw = raw
        for (filename, _line, func), (_cc, nc, tt, _ct, callers) \
                in raw.items():
            self.total_s += tt
            self.total_calls += nc
            mod = module_of(filename)
            if mod is not None:
                self._charge(mod, tt, nc)
                if mod.startswith("sim.") and "wake" in func:
                    self.wake_calls += nc
                continue
            if filename != "~":
                continue
            # A builtin: charge its self time and calls to the callers.
            for (cfile, _cl, _cf), (_ccc, cnc, ctt, _cct) \
                    in callers.items():
                cmod = module_of(cfile)
                if cmod is None:
                    continue
                self._charge(cmod, ctt, cnc)
                if cmod.startswith("sim.") and "heappush" in func:
                    self.heap_pushes += cnc

    def _charge(self, mod: str, seconds: float, calls: int) -> None:
        self.self_s[mod] = self.self_s.get(mod, 0.0) + seconds
        self.calls[mod] = self.calls.get(mod, 0) + calls

    def group(self, prefix: str):
        """(self seconds, calls) of a module or a package prefix."""
        mods = [m for m in self.self_s
                if m == prefix or m.startswith(prefix + ".")]
        return (sum(self.self_s[m] for m in mods),
                sum(self.calls[m] for m in mods))

    def entered_s(self, mod: str) -> float:
        """Inclusive time spent in ``mod`` when called from outside it."""
        total = 0.0
        for (filename, _line, _func), (_cc, _nc, _tt, _ct, callers) \
                in self._raw.items():
            if module_of(filename) != mod:
                continue
            for (cfile, _cl, _cf), (_ccc, _cnc, _ctt, cct) \
                    in callers.items():
                if module_of(cfile) != mod:
                    total += cct
        return total


@dataclass
class ProfiledHalf:
    profile: cProfile.Profile
    tap: SimTap
    samples: List[Sample]
    wall_s: float
    passes: int


def profile_half(bench: Bench, *, budget_s: float = 0.0,
                 passes: int = 0) -> ProfiledHalf:
    """Whole passes through ``bench.direct_op`` under cProfile and the
    :class:`SimTap`: exactly ``passes`` of them, or (``passes=0``) as
    many as start within ``budget_s``, at least one.  Pass ``i`` has
    the same order in every half, so two halves of equal length do
    identical work."""
    samples: List[Sample] = []
    profile = cProfile.Profile(builtins=True)
    done = 0
    with SimTap() as tap:
        t0 = time.perf_counter()
        while True:
            profile.enable()
            for op in pass_order(bench.seed, done, bench.ops):
                samples.extend(bench.direct_op(op))
            profile.disable()
            done += 1
            if passes:
                if done >= passes:
                    break
            elif time.perf_counter() - t0 >= budget_s:
                break
        wall = time.perf_counter() - t0
    return ProfiledHalf(profile, tap, samples, wall, done)


def exact_counters(split: ProfileSplit, tap: SimTap) -> Dict[str, float]:
    """The counters a deterministic op set must repeat exactly."""
    cycles = max(1, tap.cycles)
    out = {f"sim.{mod}.calls_per_cycle":
           split.group(f"sim.{mod}")[1] / cycles for mod in SIM_MODULES}
    out.update({
        "sim.calls_per_cycle": split.group("sim")[1] / cycles,
        "sim.wake_calls_per_cycle": split.wake_calls / cycles,
        "sim.heap_pushes_per_cycle": split.heap_pushes / cycles,
        "sim.node_fires_per_cycle": tap.node_fires / cycles,
        "sim.idle_frac": tap.idle_cycles / cycles,
        "core.lanes.calls_per_cycle": split.group("core.lanes")[1]
        / cycles,
    })
    return out


def profile_metrics(split: ProfileSplit, tap: SimTap, ops: int
                    ) -> Dict[str, float]:
    """Per-layer metrics read off a profiled run of ``ops`` ops."""
    cycles = max(1, tap.cycles)
    n = max(1, ops)
    sim_self = max(1e-12, split.group("sim")[0])
    out = exact_counters(split, tap)
    for mod in SIM_MODULES:
        seconds = split.group(f"sim.{mod}")[0]
        out[f"sim.{mod}.us_per_cycle"] = seconds * 1e6 / cycles
        out[f"sim.{mod}.share"] = seconds / sim_self
    out.update({
        "sim.compile.ms": split.entered_s("sim.compile") * 1e3 / n,
        "core.lanes.us_per_cycle": split.group("core.lanes")[0] * 1e6
        / cycles,
        "frontend.interp.share": split.group("frontend.interp")[0]
        / max(1e-12, split.total_s),
        "profile.calls_per_cycle": split.total_calls / cycles,
        "dse.journal.ms": split.entered_s("dse.journal") * 1e3 / n,
        "dse.cache.ms": split.entered_s("dse.cache") * 1e3 / n,
    })
    return out


def mismatches(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return [f"{k}: {a[k]!r} != {b[k]!r}" for k in sorted(a)
            if a[k] != b[k]]
