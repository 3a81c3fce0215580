"""Token channels implementing latency-insensitive connections.

A :class:`Channel` is a registered ready/valid FIFO: a value pushed in
cycle *t* becomes visible to the consumer in cycle *t+1* (the commit
step).  This charges the baseline uIR graph one pipeline stage per
edge, which is exactly the paper's "handshaking on all dataflow edges"
cost that OpFusion removes.

A :class:`LatchedChannel` is a live-in buffer: once set it can be read
any number of times without being consumed (loop-invariant values
feeding a loop body).
"""

from __future__ import annotations

from collections import deque
from typing import List


class Channel:
    """Bounded registered FIFO.

    ``stages`` is the number of register stages a token crosses before
    the consumer sees it: 2 for the baseline's full ready/valid
    handshake buffer (the producer's output register plus the edge's
    skid register), 1 after the auto-pipelining pass balances the edge
    away.  Throughput is one token per cycle either way; only latency
    differs — exactly the paper's fusion effect.
    """

    __slots__ = ("capacity", "queue", "staged", "pre", "stages", "occ")

    def __init__(self, capacity: int = 2, stages: int = 1):
        self.capacity = max(capacity, stages)
        self.stages = stages
        self.queue: deque = deque()
        self.pre: List = []      # in-flight register (stages == 2)
        self.staged: List = []
        self.occ = 0             # len(queue) + len(pre) + len(staged)

    # -- producer side ----------------------------------------------------
    def can_push(self) -> bool:
        return self.occ < self.capacity

    def push(self, value) -> None:
        self.staged.append(value)
        self.occ += 1

    # -- consumer side ----------------------------------------------------
    def ready(self) -> bool:
        return bool(self.queue)

    def peek(self):
        return self.queue[0]

    def pop(self):
        self.occ -= 1
        return self.queue.popleft()

    # -- cycle boundary -----------------------------------------------------
    def commit(self) -> bool:
        """Advance register stages; returns True if anything moved."""
        moved = False
        if self.pre:
            self.queue.extend(self.pre)
            self.pre.clear()
            moved = True
        if self.staged:
            if self.stages >= 2:
                self.pre.extend(self.staged)
            else:
                self.queue.extend(self.staged)
            self.staged.clear()
            moved = True
        return moved

    def clear(self) -> None:
        self.queue.clear()
        self.pre.clear()
        self.staged.clear()
        self.occ = 0

    @property
    def occupancy(self) -> int:
        return self.occ

    def __repr__(self) -> str:
        return (f"Channel({list(self.queue)!r}+{self.pre!r}"
                f"+{self.staged!r})")


class EventChannel(Channel):
    """A :class:`Channel` that reports events to the compiled kernel.

    Three hooks implement the latency-insensitive protocol's wake
    conditions without any polling:

    * ``push`` marks the channel *dirty* on its owning instance so
      the end-of-cycle commit only walks channels that can move
      (token-arrival wakes for the consumer are issued by the
      instance when the commit actually lands tokens in ``queue``);
    * ``can_push`` records a refusal: the producer now holds a value
      for this edge (in a fork buffer or a source's owed list) and
      waits for space;
    * ``pop`` is a credit return.  It wakes the producer only if the
      channel refused it a push since the last such wake — a producer
      that was never refused is not waiting on this edge, so the
      space changes none of its guards.  The wake follows the dense
      engine's visibility rule (same cycle if the producer's sweep
      slot is still ahead, else next cycle).

    ``owner``/``producer_idx``/``consumer_idx`` are wired by
    :class:`repro.sim.task.DataflowInstance` at instance start.
    """

    __slots__ = ("owner", "producer_idx", "consumer_idx", "dirty",
                 "refused")

    def __init__(self, capacity: int = 2, stages: int = 1):
        super().__init__(capacity, stages)
        self.owner = None
        self.producer_idx = -1
        self.consumer_idx = -1
        self.dirty = False
        self.refused = False

    def can_push(self) -> bool:
        if self.occ < self.capacity:
            return True
        self.refused = True
        return False

    def push(self, value) -> None:
        self.staged.append(value)
        self.occ += 1
        if not self.dirty:
            self.dirty = True
            self.owner._dirty.append(self)

    def pop(self):
        self.occ -= 1
        if self.refused:
            self.refused = False
            self.owner.wake_node(self.producer_idx)
        return self.queue.popleft()

    def clear(self) -> None:
        # Instance recycling resets channels in place (step closures
        # capture the deques); a stale dirty flag would make the next
        # owner skip re-registering the channel for commit.
        super().clear()
        self.dirty = False
        self.refused = False


class LatchedChannel:
    """A set-once value register readable without consumption."""

    __slots__ = ("value", "is_set")

    def __init__(self):
        self.value = None
        self.is_set = False

    def latch(self, value) -> None:
        self.value = value
        self.is_set = True

    # Consumer-side protocol mirrors Channel (pop does not consume).
    def ready(self) -> bool:
        return self.is_set

    # Truthiness == readiness, mirroring how a FIFO channel's ``queue``
    # deque is truthy exactly when a token is visible.  The compiled
    # kernel leans on this: a step closure's input guard is a plain
    # truth test over captured "ready tokens" (deques for FIFO edges,
    # the latched channel itself for invariant edges) with no method
    # dispatch at all.
    def __bool__(self) -> bool:
        return self.is_set

    def peek(self):
        return self.value

    def pop(self):
        return self.value

    # Producer side: latched channels are filled at instance start.
    def can_push(self) -> bool:
        return True

    def push(self, value) -> None:
        self.latch(value)

    def commit(self) -> bool:
        return False

    def clear(self) -> None:
        self.value = None
        self.is_set = False

    @property
    def occupancy(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"LatchedChannel({self.value!r}, set={self.is_set})"


def ready_token(ch):
    """Truthy-iff-ready proxy for a channel's consumer side: a FIFO
    channel's ``queue`` deque, or the latched channel itself."""
    return ch.queue if isinstance(ch, Channel) else ch
