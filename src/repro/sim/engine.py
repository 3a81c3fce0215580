"""Top-level simulation driver.

Two kernels produce bit-identical results (same ``SimResult.cycles``,
same memory image, same outputs, and the same stats document apart
from stall attribution, which only the compiled kernel records):

* ``kernel="compiled"`` (default) — wakeup-driven: only components
  with a pending wake are touched each cycle (see
  :mod:`repro.sim.events` and the instance-level machinery in
  :mod:`repro.sim.task`), and the memory system skips its idle
  components.  Each node steps through a closure specialized once per
  run (:mod:`repro.sim.compile`): no per-tick ``isinstance``/attribute
  dispatch on the hot path.  Each run compiles the circuit as it is
  now (a fraction of a millisecond, less than hashing it), so a
  circuit a pass has edited since its last run never meets a stale
  plan.
* ``kernel="dense"`` — the reference loop that sweeps every node of
  every active instance every cycle through the node sims' ``tick``
  (:mod:`repro.sim.nodesim`).  It has no wakes, so it is the
  independent check of the compiled kernel's scheduler and steps.

The compiled kernel also powers the observability layer
(:mod:`repro.sim.observe`): stall attribution per node/cause and an
optional ring-buffer trace, surfaced through ``SimResult.observer``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from .. import telemetry
from ..core.circuit import AcceleratorCircuit
from ..core.lanes import (BatchContext, LaneImage, LaneValues, _same,
                          lane_fingerprint, lane_row)
from ..core.validate import validate_circuit
from ..errors import (DeadlockError, ReproError, SimulationError,
                      SimulationTimeout, WatchdogTimeout,
                      error_document)
from .events import EventScheduler
from .faults import FaultInjector, FaultPlan
from .memory import MemorySystem
from .observe import Observability, classify_node, _node_loc
from .stats import SimStats
from .task import SimRuntime

#: The watchdog samples the wall clock every this many cycles — cheap
#: enough to leave on unconditionally when a timeout is configured.
WATCHDOG_STRIDE = 2048


@dataclass
class SimParams:
    """Knobs of the simulation environment (not of the circuit)."""

    max_cycles: int = 5_000_000
    deadlock_window: int = 4_000
    #: Concurrent invocations a loop task pipelines per tile (the
    #: paper's "multiple concurrent invocations outstanding").
    loop_invocation_window: int = 2
    #: Queue depth used for decoupled (<||deep>) task edges.
    decoupled_queue_depth: int = 64
    validate: bool = True
    #: "compiled" (wakeup scheduler + specialized step closures,
    #: default) or "dense" (reference sweep).
    kernel: str = "compiled"
    #: Observability level: "off", "counters" (default) or "trace".
    observe: str = "counters"
    #: Ring-buffer capacity for observe="trace".
    trace_capacity: int = 65536
    #: Fault plan injected at the kernel's wake-source seams
    #: (:mod:`repro.sim.faults`); None = fault-free run.
    faults: Optional[FaultPlan] = None
    #: Wall-clock watchdog: abort with :class:`WatchdogTimeout` after
    #: this many seconds of real time (None = no wall-clock bound).
    wallclock_timeout: Optional[float] = None
    #: Batched simulation: step this many independent workload lanes
    #: through one run (:func:`simulate_batch`).  None = scalar run.
    #: Not part of the DSE cache key (see ``dse.cache.SIM_KEY_FIELDS``)
    #: because batching cannot change per-lane results.
    batch: Optional[int] = None


@dataclass
class SimResult:
    cycles: int
    results: List
    stats: SimStats
    #: Observability layer of the run (None under the dense kernel).
    observer: Optional[Observability] = None

    def __repr__(self) -> str:
        return f"SimResult(cycles={self.cycles}, results={self.results})"


class Simulator:
    """Cycle-level simulation of a uIR circuit against a memory image.

    ``memory`` is a :class:`repro.frontend.interp.Memory` (or any object
    with a mutable ``words`` list laid out like ``circuit.array_layout``).
    The simulation mutates it in place, so callers can diff against the
    reference interpreter afterwards.
    """

    def __init__(self, circuit: AcceleratorCircuit, memory,
                 params: Optional[SimParams] = None):
        self.circuit = circuit
        self.memory_obj = memory
        self.params = params or SimParams()
        if self.params.kernel not in ("dense", "compiled"):
            raise SimulationError(
                f"unknown simulation kernel {self.params.kernel!r}")
        if self.params.validate:
            validate_circuit(circuit)

    def run(self, args: Sequence = ()) -> SimResult:
        if self.params.kernel == "dense":
            return self._run_dense(args)
        return self._run_kernel(args)

    def _make_injector(self) -> Optional[FaultInjector]:
        plan = self.params.faults
        return FaultInjector(plan) if plan is not None else None

    @staticmethod
    def _attach(err: SimulationError, stats: SimStats, now: int,
                observer: Optional[Observability] = None) \
            -> SimulationError:
        """Stamp partial run state onto a failure so repro bundles can
        ship the SimStats of the doomed run, not just the message
        (stall attribution included: the observer folds its table)."""
        if observer is not None:
            observer.fold()
        stats.cycles = now
        err.stats = stats
        return err

    # -- watchdog ----------------------------------------------------------
    # Both kernels share the same guard ordering, checked after each
    # simulated cycle: deadlock (no progress) wins over the max-cycles
    # bound (still progressing, just too long), which wins over the
    # wall-clock watchdog.  ``now >= max_cycles`` bounds the run at
    # *exactly* max_cycles simulated cycles in both kernels (the old
    # ``>`` allowed one extra cycle).
    class _Watchdog:
        __slots__ = ("limit", "start", "observer")

        def __init__(self, params, observer=None):
            self.limit = params.wallclock_timeout
            self.start = time.perf_counter() if self.limit is not None \
                else 0.0
            self.observer = observer

        def check(self, now: int, stats: SimStats) -> None:
            if self.limit is not None and \
                    not (now & (WATCHDOG_STRIDE - 1)):
                elapsed = time.perf_counter() - self.start
                if elapsed > self.limit:
                    raise Simulator._attach(
                        WatchdogTimeout(now, elapsed, self.limit),
                        stats, now, self.observer)

    # -- compiled kernel ----------------------------------------------------
    def _run_kernel(self, args: Sequence, image: Optional[LaneImage] = None,
                    batch: Optional[BatchContext] = None) -> SimResult:
        """One run of the compiled kernel, over the scalar memory or
        (``image`` + ``batch``) a lane-vectorized image; the caller
        routes dense requests elsewhere."""
        from .compile import compile_circuit
        params = self.params
        stats = SimStats()
        stats.kernel = "compiled"
        sched = EventScheduler()
        observer = Observability(stats, params.observe,
                                 params.trace_capacity)
        faults = self._make_injector()
        memsys = MemorySystem(
            self.circuit,
            self.memory_obj.words if image is None else image,
            stats, faults)
        runtime = SimRuntime(self.circuit, memsys, stats, params,
                             sched=sched, observer=observer,
                             faults=faults,
                             compiled=compile_circuit(self.circuit),
                             batch=batch)
        runtime.start_root(list(args))

        now = 0
        idle_cycles = 0
        deadlock_window = params.deadlock_window
        max_cycles = params.max_cycles
        watchdog = self._Watchdog(params, observer)
        wheel = sched.wheel
        while not runtime.root_done:
            sched.now = now
            if faults is not None:
                faults.now = now
            if wheel:
                sched.dispatch(now)
            active = runtime.tick_event(now)
            active |= memsys.tick_active(now)
            now += 1
            if runtime.root_done:
                break   # completed this very cycle: no limit applies
            if active:
                idle_cycles = 0
            else:
                idle_cycles += 1
                stats.idle_engine_cycles += 1
                if idle_cycles > deadlock_window:
                    raise self._attach(DeadlockError(
                        now, self._deadlock_report(runtime),
                        self._deadlock_diagnostics(runtime)), stats, now,
                        observer)
            if now >= max_cycles:
                raise self._attach(
                    SimulationTimeout(now, max_cycles), stats, now,
                    observer)
            watchdog.check(now, stats)
        observer.fold()
        stats.cycles = now
        return SimResult(now, runtime.root_results or [], stats,
                         observer=observer)

    # -- dense kernel (reference) -----------------------------------------
    def _run_dense(self, args: Sequence) -> SimResult:
        params = self.params
        stats = SimStats()
        stats.kernel = "dense"
        faults = self._make_injector()
        memsys = MemorySystem(self.circuit, self.memory_obj.words,
                              stats, faults)
        runtime = SimRuntime(self.circuit, memsys, stats, params,
                             faults=faults)
        runtime.start_root(list(args))

        now = 0
        idle_cycles = 0
        deadlock_window = params.deadlock_window
        max_cycles = params.max_cycles
        watchdog = self._Watchdog(params)
        while not runtime.root_done:
            if faults is not None:
                faults.now = now
            active = runtime.tick(now)
            active |= memsys.tick_active(now)
            now += 1
            if runtime.root_done:
                break   # completed this very cycle: no limit applies
            if active:
                idle_cycles = 0
            else:
                idle_cycles += 1
                stats.idle_engine_cycles += 1
                if idle_cycles > deadlock_window:
                    raise self._attach(DeadlockError(
                        now, self._deadlock_report(runtime),
                        self._deadlock_diagnostics(runtime)), stats, now)
            if now >= max_cycles:
                raise self._attach(
                    SimulationTimeout(now, max_cycles), stats, now)
            watchdog.check(now, stats)
        stats.cycles = now
        return SimResult(now, runtime.root_results or [], stats)

    # -- deadlock diagnostics ----------------------------------------------
    @staticmethod
    def _deadlock_diagnostics(runtime: SimRuntime) -> List[dict]:
        """Stall-attributed snapshot of every live task block."""
        report = []
        for name, block in runtime.blocks.items():
            if not block.busy():
                continue
            entry = {
                "task": name,
                "ready": len(block.ready),
                "active": len(block.active),
                "parked": len(block.parked),
                "instances": [],
            }
            for inst in block.active:
                nodes = []
                for sim in inst.node_sims:
                    cause = classify_node(sim)
                    if cause is not None:
                        nodes.append({"node": sim.node.name,
                                      "kind": sim.node.kind,
                                      "cause": cause,
                                      "loc": _node_loc(sim.node)})
                entry["instances"].append({
                    "liveouts": f"{len(inst.liveouts)}"
                                f"/{len(inst.task.live_out_types)}",
                    "pending_children": inst.pending_children,
                    "calls_outstanding": inst.calls_outstanding,
                    "enqueue_blocked": inst.enqueue_blocked,
                    "blocked_nodes": nodes,
                })
            report.append(entry)
        return report

    @classmethod
    def _deadlock_report(cls, runtime: SimRuntime) -> str:
        lines = []
        for entry in cls._deadlock_diagnostics(runtime):
            lines.append(
                f"{entry['task']}: ready={entry['ready']} "
                f"active={entry['active']} parked={entry['parked']}")
            for inst in entry["instances"]:
                blocked = ", ".join(
                    f"{n['node']}[{n['cause']}]"
                    + (f" at {n['loc']}" if n.get("loc") else "")
                    for n in inst["blocked_nodes"][:6])
                lines.append(
                    f"  inst liveouts={inst['liveouts']} "
                    f"children={inst['pending_children']} "
                    f"blocked: {blocked or '(none)'}")
        return "; ".join(lines) if lines else "all queues empty"


def simulate(circuit: AcceleratorCircuit, memory, args: Sequence = (),
             params: Optional[SimParams] = None) -> SimResult:
    """One-shot helper: run the circuit to completion."""
    if not telemetry.enabled():
        return Simulator(circuit, memory, params).run(args)
    with telemetry.tracer().span(
            "sim.run", category="sim", circuit=circuit.name,
            kernel=(params.kernel if params else SimParams.kernel)) as sp:
        result = Simulator(circuit, memory, params).run(args)
        sp.set(cycles=result.cycles)
        from ..core.serialize import circuit_fingerprint
        telemetry.note_fingerprint(circuit_fingerprint(circuit))
        if result.observer is not None and result.observer.tracing:
            # Register the cycle-level trace for the unified Perfetto
            # export; this span anchors its wall-clock window.
            telemetry.attach_sim_trace(circuit.name, result.observer,
                                       sp, result.cycles)
    return result


# ---------------------------------------------------------------------------
# Batched simulation
# ---------------------------------------------------------------------------

@dataclass
class BatchResult:
    """Outcome of :func:`simulate_batch` over N independent lanes.

    ``mode`` records how the lanes actually ran:

    * ``"vectorized"`` — one lane-vectorized run stepped every lane
      (uniform control held throughout).
    * ``"deopt"`` — the vectorized attempt hit lane-divergent control
      (or any other failure) and the lanes re-ran sequentially;
      ``deopt`` carries the error document of the abandoned attempt.
    * ``"sequential"`` — a policy gate (batch of 1, active fault plan,
      dense kernel) routed straight to per-lane runs.

    ``results[i]`` / ``errors[i]`` are exclusive per lane: a failed
    lane has ``results[i] is None`` and a PR-3 style error document
    (with ``lane`` and ``input_fingerprint`` keys) in ``errors[i]``;
    sibling lanes complete regardless.
    """

    lanes: int
    mode: str
    results: List[Optional[SimResult]]
    errors: List[Optional[dict]]
    stats: SimStats
    #: Error document of the abandoned vectorized attempt (mode
    #: "deopt" only).
    deopt: Optional[dict] = None
    #: Per-lane golden-check outcomes, filled by callers that verify
    #: (``Pipeline.evaluate_many``); None = not verified.
    verified: Optional[List[bool]] = None

    @property
    def ok(self) -> bool:
        return all(e is None for e in self.errors)


def _count_batch(mode: str, lanes: int, deopt=None) -> None:
    """Tally one simulate_batch outcome in the metrics registry."""
    if not telemetry.enabled():
        return
    met = telemetry.metrics()
    met.counter("sim.batch.runs").inc(mode=mode)
    met.counter("sim.batch.lanes").inc(lanes, mode=mode)
    if deopt is not None:
        met.counter("sim.batch.deopts").inc(
            cause=deopt.get("error", "?"))


def simulate_batch(circuit: AcceleratorCircuit, memories: Sequence,
                   args_lanes: Optional[Sequence[Sequence]] = None,
                   params: Optional[SimParams] = None) -> BatchResult:
    """Run ``circuit`` over N independent workload lanes at once.

    ``memories[i]`` is lane *i*'s memory image (mutated in place, like
    :func:`simulate`); ``args_lanes[i]`` its root arguments (default:
    no arguments for every lane).  The vectorized attempt runs on
    *copies* of the images, so a deopt re-runs each lane sequentially
    against its untouched original — per-lane results and memory are
    bit-identical to N independent runs in every mode.  Identical lanes
    (same args and input image) that fail the vectorized attempt with
    a :class:`ReproError` all carry its error; nothing re-runs.
    """
    memories = list(memories)
    n = len(memories)
    if n == 0:
        raise SimulationError("simulate_batch needs at least one lane")
    if args_lanes is None:
        args_lanes = [() for _ in range(n)]
    else:
        args_lanes = [list(a) for a in args_lanes]
        if len(args_lanes) != n:
            raise SimulationError(
                f"args_lanes has {len(args_lanes)} entries for "
                f"{n} memory lanes")
    params = params or SimParams()
    sim = Simulator(circuit, memories[0], params)  # validates once
    scalar = replace(params, batch=None, validate=False)

    # Policy gates: nothing to amortize (one lane), fault plans
    # (enforced scalar fallback — see DESIGN.md section 9), and the
    # dense reference kernel all run per lane.
    if n == 1 or params.faults is not None or params.kernel == "dense":
        _count_batch("sequential", n)
        return _run_lanes_sequential(circuit, memories, args_lanes,
                                     scalar, "sequential")

    image = LaneImage([list(m.words) for m in memories])
    args = _pack_args(args_lanes, n)
    sim.params = replace(params, validate=False, batch=n)
    try:
        result = sim._run_kernel(args, image, BatchContext(n))
    except Exception as exc:   # noqa: BLE001 — deopt on *anything*:
        # LaneDivergence is the designed trigger, but a lane-vector
        # reaching an unprepared scalar site surfaces as TypeError,
        # and a divergence-induced stall as DeadlockError; sequential
        # re-runs on the untouched originals answer all of them.
        doc = error_document(exc)
        if isinstance(exc, ReproError) and \
                not any(isinstance(a, LaneValues) for a in args):
            prints = {lane_fingerprint(a, m.words)
                      for a, m in zip(args_lanes, memories)}
            if len(prints) == 1:
                # Identical lanes: each scalar run would fail the same
                # way, so this one failure is every lane's.
                for i, mem in enumerate(memories):
                    mem.words[:] = image.lanes[i]
                fingerprint, = prints
                errors = [dict(doc, lane=i, input_fingerprint=fingerprint)
                          for i in range(n)]
                stats = SimStats()
                stats.batch_lanes = n
                stats.batch_mode = "vectorized"
                stats.lane_cycles = [None] * n
                _count_batch("vectorized", n)
                return BatchResult(n, "vectorized", [None] * n, errors,
                                   stats)
        _count_batch("deopt", n, deopt=doc)
        return _run_lanes_sequential(circuit, memories, args_lanes,
                                     scalar, "deopt", deopt=doc)

    for i, mem in enumerate(memories):
        mem.words[:] = image.lanes[i]
    stats = result.stats
    stats.batch_lanes = n
    stats.batch_mode = "vectorized"
    stats.lane_cycles = [result.cycles] * n
    results: List[Optional[SimResult]] = [
        SimResult(result.cycles, lane_row(result.results, i), stats,
                  observer=result.observer)
        for i in range(n)]
    _count_batch("vectorized", n)
    return BatchResult(n, "vectorized", results, [None] * n, stats)


def _pack_args(args_lanes: Sequence[Sequence], n: int) -> List:
    """Per-position packing: a root argument that is identical (in the
    strict ``_same`` sense) across lanes stays scalar; a divergent one
    becomes a lane vector."""
    width = len(args_lanes[0])
    for a in args_lanes:
        if len(a) != width:
            raise SimulationError(
                "all lanes must pass the same number of root arguments")
    packed = []
    for j in range(width):
        first = args_lanes[0][j]
        if all(_same(first, a[j]) for a in args_lanes[1:]):
            packed.append(first)
        else:
            packed.append(LaneValues([a[j] for a in args_lanes]))
    return packed


def _run_lanes_sequential(circuit, memories, args_lanes, scalar_params,
                          mode: str, deopt=None) -> BatchResult:
    """Reference path: N independent scalar runs, one per lane, each
    against its own memory image.  A failing lane yields a batch-aware
    error document (lane index + input fingerprint) and does not stop
    its siblings."""
    n = len(memories)
    results: List[Optional[SimResult]] = [None] * n
    errors: List[Optional[dict]] = [None] * n
    for i, (mem, a) in enumerate(zip(memories, args_lanes)):
        before = list(mem.words)
        try:
            results[i] = simulate(circuit, mem, a, scalar_params)
        except ReproError as exc:
            doc = error_document(exc)
            doc["lane"] = i
            doc["input_fingerprint"] = lane_fingerprint(a, before)
            errors[i] = doc
    stats = SimStats.merged([r.stats for r in results
                             if r is not None])
    stats.batch_lanes = n
    stats.batch_mode = mode
    stats.lane_cycles = [r.cycles if r is not None else None
                        for r in results]
    return BatchResult(n, mode, results, errors, stats, deopt=deopt)
