"""Seeded fault injection for the latency-insensitive protocol.

The paper's central correctness claim is that every uopt transform is
behavior-preserving *because* the circuit obeys a latency-insensitive
bundled-data protocol: results must be bit-identical under **any**
latency assignment.  This module turns that claim into an executable
invariant by perturbing exactly the quantities the protocol promises
not to care about:

* ``channel jitter``   — extra register stages on dataflow edges
* ``transient stalls`` — credit withheld on an edge for a window of
  cycles, then restored (a misbehaving downstream consumer)
* ``memory latency``   — scratchpad / cache / DRAM latency deltas
* ``FU latency``       — per-function-unit pipeline depth deltas
* ``arbiter shuffle``  — junction grant order randomized per cycle
* ``queue slowdown``   — task invocations sit in the queue extra
  cycles before a tile may start them
* ``channel freeze``   — credit withheld *permanently* from a given
  cycle on (a genuine protocol violation: the forced-deadlock fault
  used to exercise the failure path end-to-end)

Everything is deterministic from one seed: a :class:`FaultPlan` holds
only knobs + the seed, and the runtime :class:`FaultInjector` derives
every per-site decision by stable hashing (``repro.util.rng``), so a
plan replays identically regardless of circuit traversal order and
serializes to a few lines of JSON inside a repro bundle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Tuple

from ..util.rng import derive_seed, rng_for, site_fraction, site_int
from .channel import Channel, EventChannel

FAULT_SCHEMA = "repro.faultplan/v1"

#: Fault dimensions a plan can enable; also the minimizer's grid.
FAULT_CATEGORIES = ("jitter", "stall", "memory", "fu", "arbiter",
                    "queue", "freeze")


@dataclass
class FaultPlan:
    """Knobs + seed; per-site decisions derive from stable hashes."""

    seed: int = 0
    #: Fraction of dataflow edges that get extra register stages.
    jitter_rate: float = 0.0
    #: Maximum extra stages per jittered edge.
    jitter_max: int = 0
    #: Fraction of edges with one transient credit-withhold window.
    stall_rate: float = 0.0
    #: Maximum window duration in cycles (kept well under the
    #: deadlock window so a transient stall is never misdiagnosed).
    stall_max: int = 0
    #: Windows start uniformly in [0, stall_horizon).
    stall_horizon: int = 4000
    #: Maximum extra latency per memory structure (incl. DRAM).
    memory_latency_max: int = 0
    #: Fraction of function units with perturbed latency.
    fu_rate: float = 0.0
    #: Maximum extra pipeline stages per perturbed function unit.
    fu_latency_max: int = 0
    #: Randomize junction grant order every cycle.
    arbiter_shuffle: bool = False
    #: Fraction of task-queue enqueues that are delayed.
    queue_rate: float = 0.0
    #: Maximum start delay (cycles) per delayed enqueue.
    queue_delay_max: int = 0
    #: Withhold credit on every dataflow edge from this cycle on,
    #: permanently — the forced-deadlock fault (None = disabled).
    freeze_at: Optional[int] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, intensity: float = 1.0) -> "FaultPlan":
        """A random plan, deterministic from ``seed``.

        ``intensity`` scales rates and magnitudes; 1.0 gives a plan
        that visibly perturbs schedules on every workload while
        staying far from the deadlock window.
        """
        rng = rng_for(seed, "fault-plan")
        s = max(0.0, intensity)
        return cls(
            seed=seed,
            jitter_rate=min(1.0, rng.uniform(0.2, 0.6) * s),
            jitter_max=max(1, round(rng.randint(1, 4) * s)),
            stall_rate=min(1.0, rng.uniform(0.05, 0.3) * s),
            stall_max=max(1, round(rng.randint(8, 96) * s)),
            stall_horizon=rng.randint(500, 4000),
            memory_latency_max=max(1, round(rng.randint(1, 12) * s)),
            fu_rate=min(1.0, rng.uniform(0.2, 0.6) * s),
            fu_latency_max=max(1, round(rng.randint(1, 6) * s)),
            arbiter_shuffle=rng.random() < 0.75,
            queue_rate=min(1.0, rng.uniform(0.1, 0.5) * s),
            queue_delay_max=max(1, round(rng.randint(1, 16) * s)),
        )

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        doc = {"schema": FAULT_SCHEMA}
        doc.update(asdict(self))
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        schema = doc.get("schema", FAULT_SCHEMA)
        if schema != FAULT_SCHEMA:
            raise ValueError(f"unsupported fault plan schema {schema!r}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})

    # -- category algebra (used by the bundle minimizer) --------------------
    def active_categories(self) -> List[str]:
        out = []
        if self.jitter_rate > 0 and self.jitter_max > 0:
            out.append("jitter")
        if self.stall_rate > 0 and self.stall_max > 0:
            out.append("stall")
        if self.memory_latency_max > 0:
            out.append("memory")
        if self.fu_rate > 0 and self.fu_latency_max > 0:
            out.append("fu")
        if self.arbiter_shuffle:
            out.append("arbiter")
        if self.queue_rate > 0 and self.queue_delay_max > 0:
            out.append("queue")
        if self.freeze_at is not None:
            out.append("freeze")
        return out

    def without(self, category: str) -> "FaultPlan":
        """Copy of the plan with one fault dimension disabled."""
        zeroed = {
            "jitter": {"jitter_rate": 0.0, "jitter_max": 0},
            "stall": {"stall_rate": 0.0, "stall_max": 0},
            "memory": {"memory_latency_max": 0},
            "fu": {"fu_rate": 0.0, "fu_latency_max": 0},
            "arbiter": {"arbiter_shuffle": False},
            "queue": {"queue_rate": 0.0, "queue_delay_max": 0},
            "freeze": {"freeze_at": None},
        }
        if category not in zeroed:
            raise ValueError(f"unknown fault category {category!r}")
        return replace(self, **zeroed[category])

    def describe(self) -> str:
        cats = self.active_categories()
        return (f"FaultPlan(seed={self.seed}, "
                f"categories={'+'.join(cats) if cats else 'none'})")


class FaultInjector:
    """Runtime oracle answering per-site fault questions for one run.

    Stateless apart from ``now`` (the engine updates it at the top of
    every cycle so fault windows and grant shuffles see the clock
    without threading ``now`` through every channel call).  All
    decisions are pure functions of ``(plan.seed, site key)``, so two
    runs of the same plan — and replays from a repro bundle — make
    identical choices.
    """

    __slots__ = ("plan", "now")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.now = 0

    # -- channels -----------------------------------------------------------
    def channel_extra(self, task: str, conn_ord: int) -> int:
        p = self.plan
        if p.jitter_rate <= 0 or p.jitter_max <= 0:
            return 0
        if site_fraction(p.seed, "jit?", task, conn_ord) >= p.jitter_rate:
            return 0
        return site_int(p.seed, 1, p.jitter_max, "jit", task, conn_ord)

    def stall_window(self, task: str,
                     conn_ord: int) -> Optional[Tuple[int, Optional[int]]]:
        """``(start, end)`` credit-withhold window, ``end=None`` for a
        permanent freeze, or None when the edge is unaffected."""
        p = self.plan
        window = None
        if p.stall_rate > 0 and p.stall_max > 0 and \
                site_fraction(p.seed, "stall?", task,
                              conn_ord) < p.stall_rate:
            start = site_int(p.seed, 0, max(0, p.stall_horizon - 1),
                             "stall-at", task, conn_ord)
            dur = site_int(p.seed, 1, p.stall_max,
                           "stall-dur", task, conn_ord)
            window = (start, start + dur)
        if p.freeze_at is not None:
            # The permanent freeze dominates any transient window.
            window = (p.freeze_at, None)
        return window

    # -- function units -----------------------------------------------------
    def fu_extra(self, task: str, node_name: str) -> int:
        p = self.plan
        if p.fu_rate <= 0 or p.fu_latency_max <= 0:
            return 0
        if site_fraction(p.seed, "fu?", task, node_name) >= p.fu_rate:
            return 0
        return site_int(p.seed, 1, p.fu_latency_max, "fu", task,
                        node_name)

    # -- memory structures --------------------------------------------------
    def memory_extra(self, structure_name: str) -> int:
        p = self.plan
        if p.memory_latency_max <= 0:
            return 0
        return site_int(p.seed, 0, p.memory_latency_max, "mem",
                        structure_name)

    # -- junction arbiters --------------------------------------------------
    def shuffle_grants(self, junction_name: str, queue) -> None:
        """Permute a junction's request queue in place (this cycle's
        grant order).  Safe by construction: requests concurrently
        outstanding at a junction are independent — the translator's
        ordering edges serialize dependent accesses upstream."""
        if not self.plan.arbiter_shuffle or len(queue) < 2:
            return
        rng = rng_for(derive_seed(
            "arb", self.plan.seed, junction_name, self.now))
        order = list(queue)
        rng.shuffle(order)
        queue.clear()
        queue.extend(order)

    # -- task queues --------------------------------------------------------
    def queue_delay(self, parent: str, callee: str, seq: int) -> int:
        p = self.plan
        if p.queue_rate <= 0 or p.queue_delay_max <= 0:
            return 0
        if site_fraction(p.seed, "q?", parent, callee,
                         seq) >= p.queue_rate:
            return 0
        return site_int(p.seed, 1, p.queue_delay_max, "q", parent,
                        callee, seq)


# ---------------------------------------------------------------------------
# Fault channels
# ---------------------------------------------------------------------------
# Latency jitter generalizes Channel's register pipeline: a token
# pushed at cycle t becomes visible at t + stages + extra.  In-flight
# tokens live in ``pre`` as [commits_left, value] pairs so the compiled
# kernel's carry machinery ("ch.pre is truthy => keep committing")
# works unchanged.  Capacity grows by ``extra`` — each injected
# register stage is also a buffer slot, exactly as in hardware.


def _fault_commit(ch) -> bool:
    moved = False
    if ch.pre:
        keep = []
        for entry in ch.pre:
            entry[0] -= 1
            if entry[0] <= 0:
                ch.queue.append(entry[1])
            else:
                keep.append(entry)
        ch.pre[:] = keep
        moved = True
    if ch.staged:
        delay = ch.stages - 1 + ch.extra
        for value in ch.staged:
            if delay <= 0:
                ch.queue.append(value)
            else:
                ch.pre.append([delay, value])
        ch.staged.clear()
        moved = True
    return moved


def _stalled(ch) -> bool:
    window = ch.window
    if window is None:
        return False
    start, end = window
    now = ch.injector.now
    return now >= start and (end is None or now < end)


class FaultChannel(Channel):
    """Dense-kernel channel with latency jitter + stall windows."""

    __slots__ = ("extra", "window", "injector")

    def __init__(self, capacity: int, stages: int, extra: int,
                 window, injector: FaultInjector):
        super().__init__(capacity + extra, stages)
        self.extra = extra
        self.window = window
        self.injector = injector

    def can_push(self) -> bool:
        if _stalled(self):
            return False
        return self.occ < self.capacity

    def commit(self) -> bool:
        return _fault_commit(self)


class FaultEventChannel(EventChannel):
    """Compiled-kernel channel with latency jitter + stall windows.

    Wake contract: the creator schedules a producer wake at each stall
    window's end (the credit-restore edge), so a producer asleep on a
    withheld edge is never lost.  A refusal, full or stalled, is
    recorded as in :meth:`EventChannel.can_push`, so the next ``pop``
    wakes the producer too.  Jitter needs no extra wakes — the carry
    flag keeps the owning instance committing while tokens are in
    flight, and token arrival wakes the consumer as usual.
    """

    __slots__ = ("extra", "window", "injector")

    def __init__(self, capacity: int, stages: int, extra: int,
                 window, injector: FaultInjector):
        super().__init__(capacity + extra, stages)
        self.extra = extra
        self.window = window
        self.injector = injector

    def can_push(self) -> bool:
        if self.occ < self.capacity and not _stalled(self):
            return True
        self.refused = True
        return False

    def commit(self) -> bool:
        return _fault_commit(self)
