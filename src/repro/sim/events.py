"""Wakeup scheduling for the compiled (wakeup-driven) simulation kernel.

The kernel's contract with the dense reference engine is *order
preservation*: any superset of the nodes that would act in a cycle,
processed in the dense engine's sweep order (block order, then
active-list order, then node index order), produces bit-identical
behavior, because a node whose guards fail is a no-op in both engines.
Correctness therefore reduces to never *missing* a wakeup; spurious
wakeups only cost time.

Three structures implement that contract:

``TimingWheel``
    cycle -> list of ``(instance, idx)`` wakeups for timer expiries
    (function-unit retirement, initiation intervals, loop issue
    slots, park checks; a task block's parked-retry time has the block
    as its target).  Popped at the top of every cycle, before
    any component runs, so a timer wake is visible to the whole
    sweep of its cycle — exactly when the dense engine would have
    noticed the ``now``-dependent condition.

``EventScheduler``
    Owns the wheel and the current cycle number.  Components consult
    ``sched.now`` to route a wakeup: an event produced at cycle *t*
    aimed at a component that the sweep has not reached yet must be
    delivered at *t* (the dense engine's later-ordered tick would
    observe it), while one aimed at an already-swept component is
    deferred to *t + 1* (the dense engine's earlier-ordered tick ran
    before the event existed).

Per-instance wake state (two node bitmasks, this cycle's and the
next's) lives on :class:`repro.sim.task.DataflowInstance`; this module
only defines the shared machinery and the ``WAKE_CHECK`` sentinel.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Sentinel wake index: process the instance with an empty sweep so
#: the block re-evaluates ``parkable``/``is_complete`` (idle catch-up).
WAKE_CHECK = -2


class TimingWheel:
    """Sparse cycle -> wakeup-list map.

    A dict keyed by absolute cycle is the right shape here: wakeups
    are bursty (a compute fire schedules its retirement, a loop issue
    schedules its next slot) and the simulated horizon is unbounded,
    so a ring of fixed size would need a spill path anyway.

    The wheel maintains ``instance._wheel_refs``, the count of
    not-yet-dispatched entries pointing at an instance: the block
    instance pool must not recycle a completed instance that a stale
    timer could still wake.
    """

    __slots__ = ("_slots",)

    def __init__(self):
        self._slots: Dict[int, List[Tuple[object, int]]] = {}

    def schedule(self, cycle: int, instance, idx: int) -> None:
        instance._wheel_refs += 1
        slot = self._slots.get(cycle)
        if slot is None:
            self._slots[cycle] = [(instance, idx)]
        else:
            slot.append((instance, idx))

    def pop(self, cycle: int):
        """Remove and return this cycle's wakeups (possibly empty)."""
        return self._slots.pop(cycle, ())

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __len__(self) -> int:
        return sum(len(v) for v in self._slots.values())


class EventScheduler:
    """Shared clock + timing wheel for one simulation run."""

    __slots__ = ("now", "wheel")

    def __init__(self):
        self.now = 0
        self.wheel = TimingWheel()

    def dispatch(self, now: int) -> None:
        """Deliver every timer wake registered for ``now``."""
        for instance, idx in self.wheel.pop(now):
            instance._wheel_refs -= 1
            instance.timer_wake(idx)
