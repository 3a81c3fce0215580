"""Task-block runtime: dataflow instances, execution tiles, queues.

Implements the paper's whole-accelerator execution model (Figure 5):
task blocks run concurrently, each with a local queue of ready and
pending invocations and ``num_tiles`` execution tiles.  An invocation
that is blocked only on child-task responses *parks* — it stays in the
task queue as a pending task and releases its tile (this is how the
queue-based runtime expresses the paper's recursion-as-tasks pattern
without deadlock).

Two schedulers share this state:

* the **dense** kernel (:meth:`DataflowInstance.tick`,
  :meth:`TaskBlockSim.tick`) sweeps every node of every instance every
  cycle through the node sims' reference ``tick`` — it has no wakes;
* the **compiled** kernel (:meth:`DataflowInstance.process`,
  :meth:`TaskBlockSim.tick_event`) only touches components with a
  pending wakeup, and steps each node through a closure bound once per
  instance from :mod:`repro.sim.compile`.  The correctness argument: a
  step, like the ``tick`` it replicates, is a strict no-op when its
  guards fail, so processing any *superset* of the acting nodes in
  dense sweep order is bit-identical; the wake plumbing below only
  has to guarantee no acting node is ever missed.

Event visibility rule (matches the dense sweep order): an event
produced at cycle *t* is delivered at *t* if its target would still be
swept later this cycle (block later in dict order than the one being
visited, or the visited block before its instance sweep; node index
ahead of the sweep cursor), else at *t + 1*.  ``SimRuntime.swept``
marks the position: blocks below it have had their slot this cycle,
whether or not they were visited.

Wake sets are int bitmasks at both levels.  An instance keeps its
woken nodes in ``_ready`` (this cycle) and ``_next`` (the next one);
a sweep steps the lowest set bit of ``_ready`` until none is left, so
every woken node steps at most once per cycle, in ascending order; a
wake above the cursor sets its bit in ``_ready``, one at or below it
goes to ``_next``.  Only an instance's first sweep (at its start or
recycle) steps every node.  Every other wake is aimed at the nodes
whose guards its event can change: a commit that lands a token wakes
the consumer, a ``pop`` the producer only if that channel refused it
a push, a child's answer the call, spawn and sync nodes, a loop
finish the phis, a sink's progress a loop control waiting on its
in-flight window, a timer its node; an unparked instance gets one
check sweep over the nodes woken while it was parked.  The runtime
keeps the blocks with work the same way (``_bready``/``_bnext``, bit
*i* = block *i*) and visits only those, in block order.  A block has
work when it has a startable invocation, a parked instance with a
child response or a due retry, or an active instance with a wake, a
park check or a carry; every path that creates such work marks the
block under the visibility rule.  Parked instances are looked at only
then.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..core.circuit import TaskBlock
from ..errors import SimulationError
from .channel import Channel, EventChannel, LatchedChannel
from .events import WAKE_CHECK
from .faults import FaultChannel, FaultEventChannel
from .nodesim import make_node_sim
from .stats import SimStats

#: Dense parks an instance when its idle streak exceeds this.
PARK_IDLE_THRESHOLD = 8
#: Dense retries an enqueue-blocked park after this many cycles.
PARK_RETRY_CYCLES = 16
#: ``TaskBlockSim.retry_at`` when no parked instance awaits a retry.
NEVER = 1 << 62


class TaskInvocation:
    """One dynamic activation of a task block."""

    __slots__ = ("args", "reply", "parent", "edge_key", "not_before")

    def __init__(self, args, reply, parent, edge_key):
        self.args = list(args)
        self.reply = reply          # _CallRecord to fill, or None (spawn)
        self.parent = parent        # parent DataflowInstance or None
        self.edge_key = edge_key
        #: Earliest cycle a tile may start this invocation (fault
        #: injection's task-queue slowdown; 0 = immediately).
        self.not_before = 0


class _TaskStatic:
    """Invocation-invariant wiring of one task block, computed once per
    run.

    Instance construction is on the hot path for spawn-heavy
    workloads (one instance per child task), so everything derivable
    from the static dataflow graph — channel parameters, latch sites,
    node-kind index lists, stall-attribution keys — is precomputed
    here and shared by every instance of the task.
    """

    __slots__ = ("conns", "latched", "const_latches", "livein_latches",
                 "loop_conditional", "sink_idxs", "effect_sink_idxs",
                 "mem_idxs", "call_idxs", "loopctl_idxs", "phi_idxs",
                 "answer_idxs", "sites", "task_keys")

    def __init__(self, task: TaskBlock, observer=None):
        nodes = task.dataflow.nodes
        order = {id(n): i for i, n in enumerate(nodes)}
        self.conns = []
        self.latched = []
        for conn in task.dataflow.connections:
            if conn.latched:
                self.latched.append(id(conn))
            else:
                self.conns.append(
                    (id(conn), conn.depth, 2 if conn.buffered else 1,
                     order[id(conn.src.node)], order[id(conn.dst.node)]))
        self.const_latches = []
        self.livein_latches = []
        for node in nodes:
            if node.kind == "const":
                for conn in node.out.outgoing:
                    if conn.latched:
                        self.const_latches.append((id(conn), node.value))
            elif node.kind == "livein":
                for conn in node.out.outgoing:
                    if conn.latched:
                        self.livein_latches.append((id(conn), node.index))
        self.loop_conditional = any(
            n.kind == "loopctl" and n.conditional for n in nodes)
        from .nodesim import SIM_CLASSES
        sink_kinds = {k for k, cls in SIM_CLASSES.items()
                      if cls.is_iter_sink}
        self.sink_idxs = [i for i, n in enumerate(nodes)
                          if n.kind in sink_kinds]
        self.effect_sink_idxs = [i for i in self.sink_idxs
                                 if nodes[i].kind != "phi"]
        self.mem_idxs = [i for i, n in enumerate(nodes)
                         if n.kind in ("load", "store")]
        self.call_idxs = [i for i, n in enumerate(nodes)
                          if n.kind in ("call", "spawn")]
        self.loopctl_idxs = [i for i, n in enumerate(nodes)
                             if n.kind == "loopctl"]
        self.phi_idxs = [i for i, n in enumerate(nodes)
                         if n.kind == "phi"]
        # The nodes a child's answer can unblock: a call retires its
        # reply, a sync sees pending_children fall; waking the spawns
        # too gives a spawn-only parent the sweep whose tail sees it
        # complete.
        self.answer_idxs = [i for i, n in enumerate(nodes)
                            if n.kind in ("call", "spawn", "sync")]
        # Stall-attribution sites, in classification order: each
        # load/store, then each call/spawn, with its keys per cause.
        self.sites = []
        self.task_keys = None
        if observer is not None and observer.enabled:
            self.sites = [observer.site(task.name, i, nodes[i])
                          for i in self.mem_idxs + self.call_idxs]
            self.task_keys = observer.keys_for(task.name)


class DataflowInstance:
    """Runtime state of one invocation: channels + node state machines."""

    def __init__(self, task: TaskBlock, runtime: "SimRuntime",
                 invocation: TaskInvocation):
        self.task = task
        self.runtime = runtime
        self.invocation = invocation
        self.args = invocation.args
        self.stats: SimStats = runtime.stats
        self._act = 0
        self.idle_cycles = 0
        self.pending_children = 0
        self.calls_outstanding = 0
        self.response_arrived = False
        self.enqueue_blocked = False
        self.park_cycle = -1
        self.loop_trips: Optional[int] = None
        self.loop_finished = task.kind != "loop"
        self.loop_conditional = False
        self.liveouts: Dict[int, object] = {}
        self.block: Optional["TaskBlockSim"] = None
        #: In its block's ``active`` list, holding a tile (compiled
        #: kernel): only then do its wakes give the block work.
        self.on_tile = False
        #: Not-yet-dispatched timing-wheel entries aimed here
        #: (maintained by TimingWheel/EventScheduler); the block pool
        #: refuses to recycle while a stale timer could still fire.
        self._wheel_refs = 0
        #: Live edge-waiter registrations (same pool-safety role).
        self._eq_regs = 0

        sched = runtime.sched
        self.sched = sched
        self.static = static = runtime.statics[task.name]
        channels: Dict[int, object] = {}
        self.channels = channels
        faults = runtime.faults
        if faults is not None:
            self._make_fault_channels(static, faults)
        elif sched is not None:
            for cid, depth, stages, p_idx, c_idx in static.conns:
                ch = EventChannel(depth, stages)
                ch.owner = self
                ch.producer_idx = p_idx
                ch.consumer_idx = c_idx
                channels[cid] = ch
        else:
            for cid, depth, stages, _p, _c in static.conns:
                channels[cid] = Channel(depth, stages)
        # Pre-latch loop-invariant values (live-in buffers).
        for cid in static.latched:
            channels[cid] = LatchedChannel()
        for cid, value in static.const_latches:
            channels[cid].latch(value)
        for cid, arg_idx in static.livein_latches:
            channels[cid].latch(self.args[arg_idx])
        self.node_sims = sims = [make_node_sim(n, self)
                                 for n in task.dataflow.nodes]
        for i, sim in enumerate(sims):
            sim.idx = i
        self.loop_conditional = static.loop_conditional
        self.sinks = [sims[i] for i in static.sink_idxs]
        self._effect_sinks = [sims[i] for i in static.effect_sink_idxs]
        self._mem_sims = [sims[i] for i in static.mem_idxs]
        self._call_sims = [sims[i] for i in static.call_idxs]
        self._loopctl_idxs = static.loopctl_idxs
        self._n_live = len(task.live_out_types)

        # -- compiled-kernel wake state -----------------------------------
        # Node sets are int bitmasks (bit i = node i), so a sweep pops
        # the lowest set bit and visits each woken node once, ascending.
        self._all = (1 << len(sims)) - 1
        self._ready = self._all           # this cycle; first sweep: all
        self._next = 0                    # wakes targeted at next cycle
        self._next_from = -1              # cycle _next was filled in
        self.force_check = False          # park-check / bookkeeping wake
        self._carry = False               # a channel still holds `pre`
        self._dirty: List[EventChannel] = []
        self._sweeping = False
        self._cursor = -1
        self.last_processed = -1
        self._eqb_count = 0               # sims stuck on try_enqueue
        self._window_wait = 0             # loopctls at in-flight window
        self._check_at = -1               # pending park-check cycle
        self._sleep_attr = None           # stall causes of current sleep
        self.attr_sites = None            # bound by Observability

        # -- steps: one closure per node, swept by ``process`` ----------
        # Bound once per instance (they capture node sims, channels
        # and instance callbacks, so this runs last; a recycled
        # instance keeps them).
        compiled = runtime.compiled
        if compiled is not None:
            self._steps = compiled[task.name].bind(self)
        # Fault-free instances hold only plain EventChannels, whose
        # commit the sweep inlines; fault channels override commit, so
        # a faulted run keeps the dynamic call.
        self._plain_commit = runtime.faults is None

    def _make_fault_channels(self, static, faults) -> None:
        """Channel construction under an active fault plan.

        Edges the plan leaves alone get ordinary channels; perturbed
        edges get fault channels carrying their extra stages and/or
        credit-withhold window.  Each transient window's end is armed
        as a producer wake on the timing wheel — the credit-restore
        edge the compiled kernel would otherwise never see (a permanent
        freeze arms nothing: it *should* end in a deadlock report).
        """
        sched = self.sched
        task_name = self.task.name
        now = sched.now if sched is not None else 0
        for ordinal, (cid, depth, stages, p_idx, c_idx) in \
                enumerate(static.conns):
            extra = faults.channel_extra(task_name, ordinal)
            window = faults.stall_window(task_name, ordinal)
            if window is not None and window[1] is not None \
                    and window[1] <= now:
                window = None       # already over before we started
            if sched is not None:
                if extra or window is not None:
                    ch = FaultEventChannel(depth, stages, extra,
                                           window, faults)
                    if window is not None and window[1] is not None:
                        sched.wheel.schedule(window[1], self, p_idx)
                else:
                    ch = EventChannel(depth, stages)
                ch.owner = self
                ch.producer_idx = p_idx
                ch.consumer_idx = c_idx
            elif extra or window is not None:
                ch = FaultChannel(depth, stages, extra, window, faults)
            else:
                ch = Channel(depth, stages)
            self.channels[cid] = ch

    # -- wiring ------------------------------------------------------------
    def junction_sim_for(self, node):
        junction = self.task.junctions[node.junction_index]
        return self.runtime.memory.junction_sim(junction)

    # -- instance recycling (block pool) -----------------------------------
    def recycle(self, invocation: TaskInvocation) -> None:
        """Reuse this completed instance for a fresh invocation.

        Construction is the dominant per-invocation cost for
        spawn-heavy workloads, so the block pool hands completed
        instances back through here instead of building new ones.
        The instance keeps the step closures bound when it was built:
        they capture only what is fixed for the instance's life or
        what is reset here *in place* (channels, fork buffers, node
        sims' containers), and read every other per-invocation field
        from the sim at step time.  The pool-release gate
        (``_wheel_refs``, ``_eq_regs``) guarantees no stale timer or
        edge-waiter entry can reach the recycled instance.
        """
        self.invocation = invocation
        self.args = invocation.args
        self._act = 0
        self.idle_cycles = 0
        self.pending_children = 0
        self.calls_outstanding = 0
        self.response_arrived = False
        self.enqueue_blocked = False
        self.park_cycle = -1
        self.loop_trips = None
        self.loop_finished = self.task.kind != "loop"
        self.liveouts.clear()
        static = self.static
        channels = self.channels
        for ch in channels.values():
            ch.clear()
        for cid, value in static.const_latches:
            channels[cid].latch(value)
        for cid, arg_idx in static.livein_latches:
            channels[cid].latch(self.args[arg_idx])
        for sim in self.node_sims:
            sim.reset()
        self._ready = self._all
        self._next = 0
        self._next_from = -1
        self.force_check = False
        self._carry = False
        self._dirty = []
        self._sweeping = False
        self._cursor = -1
        self.last_processed = -1
        self._eqb_count = 0
        self._window_wait = 0
        self._check_at = -1
        self._sleep_attr = None

    # -- protocol callbacks --------------------------------------------------
    def record_liveout(self, index: int, value) -> None:
        self.liveouts[index] = value

    def completed_iterations(self) -> int:
        if not self.sinks:
            return 1 << 30
        return min(s.sink_count for s in self.sinks)

    # -- wakeup plumbing (compiled kernel) -------------------------------
    def _wake_next(self, mask: int) -> None:
        """Wake ``mask`` next cycle; wakes queued in an earlier cycle
        (the instance was not swept since) move to ``_ready`` first."""
        now = self.sched.now
        if self._next_from != now:
            self._ready |= self._next
            self._next = mask
            self._next_from = now
        else:
            self._next |= mask
        if self.on_tile:
            self.runtime._bnext |= self.block.bit

    def wake_node(self, idx: int) -> None:
        """Deliver a wake to one node under the visibility rule."""
        if self._sweeping:
            if idx > self._cursor:
                self._ready |= 1 << idx
            else:
                self._wake_next(1 << idx)
        elif self.block.index < self.runtime.swept:
            self._wake_next(1 << idx)
        else:
            self._ready |= 1 << idx
            if self.on_tile:
                self.runtime._bready |= self.block.bit

    def on_child_answer(self) -> None:
        """A child delivered: wake the call, spawn and sync nodes (the
        only guards an answer changes).  A parked instance also gives
        its block unpark work."""
        for idx in self.static.answer_idxs:
            self.wake_node(idx)
        if not self.on_tile:
            self.block.has_response = True
            self.block.wake()

    def schedule_node(self, idx: int, cycle: int) -> None:
        """Timer: wake ``idx`` at the top of ``cycle``."""
        self.sched.wheel.schedule(cycle, self, idx)

    def timer_wake(self, idx: int) -> None:
        """Wheel dispatch (top of cycle, before any sweep)."""
        if idx == WAKE_CHECK:
            self.force_check = True
        else:
            self._ready |= 1 << idx
        if self.on_tile:
            self.runtime._bready |= self.block.bit

    def on_sink_progress(self) -> None:
        """An iteration sink advanced: a loop control waiting on its
        in-flight window (its step set its bit in ``_window_wait``)
        may issue again; one that waits on anything else may not."""
        waiting = self._window_wait
        if waiting:
            self._window_wait = 0
            for idx in self._loopctl_idxs:
                if waiting >> idx & 1:
                    self.wake_node(idx)

    def on_loop_finished(self) -> None:
        """Loop control finished: a phi may now push its final value.
        No other node reads ``loop_finished``, and the trip count it
        fixes only caps the phis' back edges, which unblocks nothing."""
        for idx in self.static.phi_idxs:
            self.wake_node(idx)

    def note_enqueue_blocked(self, sim) -> None:
        """A call/spawn failed try_enqueue (callee queue at depth)."""
        self.enqueue_blocked = True
        if not sim._eq_blocked:
            sim._eq_blocked = True
            self._eqb_count += 1
        if not sim._eq_registered:
            sim._eq_registered = True
            self._eq_regs += 1
            self.runtime.register_edge_waiter(
                (self.task.name, sim.node.callee), self, sim)

    def note_enqueue_ok(self, sim) -> None:
        if sim._eq_blocked:
            sim._eq_blocked = False
            self._eqb_count -= 1

    # -- execution (compiled kernel) ----------------------------------------
    def process(self, now: int) -> None:
        """Sweep the woken nodes in dense order; commit dirty channels.

        :meth:`TaskBlockSim.tick_event` has already moved wakes queued
        in an earlier cycle (``_next``) into ``_ready``.  Each node's
        step (:mod:`repro.sim.compile`) sets the sweep cursor, drains
        its pending forks, does what the node's ``tick`` does, and
        issues the wakes its next action needs.  Fault-free instances
        commit their dirty channels with :meth:`Channel.commit`'s body
        inlined (fault channels override ``commit``, so those keep the
        dynamic call).
        """
        gap = now - self.last_processed - 1
        if gap > 0:
            # Asleep cycles are provably activity-free: account them
            # in one step and charge the recorded stall causes.
            self.idle_cycles += gap
            if self._sleep_attr:
                self.runtime.observer.charge(self._sleep_attr, gap,
                                             self.last_processed + 1)
        self._sleep_attr = None
        self.last_processed = now
        self._act = 0
        self.force_check = False
        steps = self._steps
        self._sweeping = True
        # _next is empty (nothing can defer-wake this instance earlier
        # in its own cycle), so a step's self-rearm can OR into it
        # without _wake_next's promote check.
        self._next_from = now
        # Step the lowest woken node until none is left.  A step may
        # wake nodes above the cursor, so the mask is re-read each time.
        ready = self._ready
        while ready:
            low = ready & -ready
            self._ready = ready ^ low
            steps[low.bit_length() - 1](now)
            ready = self._ready
        self._sweeping = False
        self._cursor = -1
        if self._dirty:
            dirty = self._dirty
            self._dirty = []
            carry = False
            if self._plain_commit:
                act = self._act
                for ch in dirty:
                    queue = ch.queue
                    depth = len(queue)
                    pre = ch.pre
                    staged = ch.staged
                    if pre:
                        queue.extend(pre)
                        pre.clear()
                        act += 1
                        if staged:
                            if ch.stages >= 2:
                                pre.extend(staged)
                            else:
                                queue.extend(staged)
                            staged.clear()
                    elif staged:
                        if ch.stages >= 2:
                            pre.extend(staged)
                        else:
                            queue.extend(staged)
                        staged.clear()
                        act += 1
                    if len(queue) > depth:
                        self._next |= 1 << ch.consumer_idx
                    if pre:
                        # Two-stage edge still holds an in-flight
                        # token: it must commit again next cycle.
                        self._dirty.append(ch)
                        carry = True
                    else:
                        ch.dirty = False
                self._act = act
            else:
                for ch in dirty:
                    depth = len(ch.queue)
                    if ch.commit():
                        self._act += 1
                    if len(ch.queue) > depth:
                        self._next |= 1 << ch.consumer_idx
                    if ch.pre:
                        self._dirty.append(ch)
                        carry = True
                    else:
                        ch.dirty = False
            self._carry = carry
        else:
            self._carry = False
        self.enqueue_blocked = bool(self._eqb_count)
        if self._act:
            self.idle_cycles = 0
        else:
            self.idle_cycles += 1

    def sleep(self, now: int) -> None:
        """Bookkeeping as the instance goes quiet (no wake queued).

        If dense would park it while we are asleep (idle streak hits
        the threshold with children outstanding and memory idle),
        schedule a check wake for exactly that cycle; and snapshot the
        stall causes so the slept cycles can be attributed on wakeup.
        """
        if (self.enqueue_blocked or self.calls_outstanding > 0
                or self.pending_children > 0) and \
                self.idle_cycles <= PARK_IDLE_THRESHOLD and \
                self._check_at <= now and not self.memory_busy():
            target = now + PARK_IDLE_THRESHOLD + 1 - self.idle_cycles
            self._check_at = target
            self.sched.wheel.schedule(target, self, WAKE_CHECK)
        obs = self.runtime.observer
        if obs.enabled:
            self._sleep_attr = obs.classify_instance(self)

    # -- execution (dense kernel) -----------------------------------------
    def tick(self, now: int) -> None:
        self._act = 0
        self.enqueue_blocked = False
        for sim in self.node_sims:
            sim.drain_forks()
            sim.tick(now)
        for ch in self.channels.values():
            if ch.commit():
                self._act += 1
        if self._act:
            self.idle_cycles = 0
        else:
            self.idle_cycles += 1

    def memory_busy(self) -> bool:
        return any(s.busy() for s in self._mem_sims)

    def is_complete(self) -> bool:
        if len(self.liveouts) < len(self.task.live_out_types):
            return False
        if self.pending_children > 0:
            return False
        if not self.loop_finished:
            return False
        expected = (self.loop_trips or 0) if self.task.kind == "loop" \
            else 1
        for sink in self.sinks:
            if sink.sink_count < expected:
                return False
        # Only effectful nodes gate completion: pure function units may
        # hold surplus tokens produced by free-running (all-invariant)
        # sources, which are dead once every sink met its quota.
        for sim in self._mem_sims:
            if sim.busy():
                return False
        for sim in self._call_sims:
            if sim.busy():
                return False
        return True

    def parkable(self) -> bool:
        waiting_on_children = (self.calls_outstanding > 0
                               or self.pending_children > 0
                               or self.enqueue_blocked)
        return (self.idle_cycles > PARK_IDLE_THRESHOLD
                and waiting_on_children and not self.memory_busy())

    def results(self) -> List:
        return [self.liveouts[i]
                for i in range(len(self.task.live_out_types))]


class TaskBlockSim:
    """Queue + tiles for one task block."""

    def __init__(self, task: TaskBlock, runtime: "SimRuntime",
                 index: int):
        self.task = task
        self.runtime = runtime
        #: Position in block order, and this block's bit in the
        #: runtime's work masks (compiled kernel).
        self.index = index
        self.bit = 1 << index
        self.ready: deque = deque()
        self.edge_pending: Dict[tuple, int] = {}
        self.active: List[DataflowInstance] = []
        self.parked: List[DataflowInstance] = []
        window = (runtime.params.loop_invocation_window
                  if task.kind == "loop" else 1)
        self.capacity = max(1, task.num_tiles) * max(1, window)
        #: Compiled kernel: a parked instance may hold a child response
        #: (the unpark phase has work), and the earliest cycle a
        #: parked enqueue-blocked instance is due for a retry.
        self.has_response = False
        self.retry_at = NEVER
        #: Retry timers of this block not yet dispatched (the timing
        #: wheel counts its entries per target).
        self._wheel_refs = 0
        #: Instance free list (fault-free scalar compiled runs):
        #: completed instances are recycled instead of reconstructed —
        #: instance construction dominates spawn-heavy workloads.  None
        #: builds every instance fresh.
        self.pool: Optional[List[DataflowInstance]] = \
            [] if runtime.pooling else None

    def pending_count(self, edge_key: tuple) -> int:
        return self.edge_pending.get(edge_key, 0)

    def enqueue(self, invocation: TaskInvocation) -> None:
        key = invocation.edge_key
        self.edge_pending[key] = self.edge_pending.get(key, 0) + 1
        self.ready.append(invocation)
        if self.runtime.sched is not None:
            self.wake()

    # -- compiled-kernel work set -------------------------------------------
    def wake(self) -> None:
        """Give this block work (an enqueue, a parked instance's child
        response) under the visibility rule: this cycle if its slot is
        still ahead, else the next.  Without a free tile neither can
        act; the visit that frees one looks again (end of tick_event).
        """
        if len(self.active) < self.capacity:
            runtime = self.runtime
            if self.index < runtime.swept:
                runtime._bnext |= self.bit
            else:
                runtime._bready |= self.bit

    def timer_wake(self, idx: int) -> None:
        """Wheel dispatch of a parked instance's retry time."""
        if len(self.active) < self.capacity:
            self.runtime._bready |= self.bit

    # -- dense kernel ------------------------------------------------------
    def tick(self, now: int) -> bool:
        """Advance one cycle; returns True if anything happened."""
        active_cycle = False
        # Wake order matters for recursion: first instances whose child
        # responses arrived, then fresh ready invocations (the children
        # everyone is waiting on), and only then enqueue-blocked parks
        # retrying on leftover capacity.
        still_parked = []
        for inst in self.parked:
            if inst.response_arrived and \
                    len(self.active) < self.capacity:
                inst.response_arrived = False
                inst.idle_cycles = 0
                self.active.append(inst)
                active_cycle = True
            else:
                still_parked.append(inst)
        self.parked = still_parked
        # Start ready invocations on free capacity.
        while self.ready and len(self.active) < self.capacity and \
                self.ready[0].not_before <= now:
            inv = self.ready.popleft()
            self.edge_pending[inv.edge_key] -= 1
            inst = DataflowInstance(self.task, self.runtime, inv)
            inst.block = self
            self.active.append(inst)
            self.runtime.stats.invocations[self.task.name] += 1
            active_cycle = True
        if not self.ready:
            still_parked = []
            for inst in self.parked:
                retry = inst.enqueue_blocked and \
                    now - inst.park_cycle >= PARK_RETRY_CYCLES
                if retry and len(self.active) < self.capacity:
                    inst.response_arrived = False
                    inst.idle_cycles = 0
                    self.active.append(inst)
                    # Deliberately NOT an active cycle: a retry only
                    # counts if the re-run instance makes real progress
                    # (its own tick reports that).  Counting the unpark
                    # itself would let a permanently blocked enqueue
                    # defeat deadlock detection by retrying forever.
                else:
                    still_parked.append(inst)
            self.parked = still_parked
        # Tick instances; collect completions and parks.
        finished: List[DataflowInstance] = []
        parked: List[DataflowInstance] = []
        for inst in self.active:
            inst.tick(now)
            active_cycle |= inst._act != 0
            if inst.is_complete():
                finished.append(inst)
            elif inst.parkable():
                parked.append(inst)
        for inst in finished:
            self.active.remove(inst)
            self.runtime.deliver(inst)
            active_cycle = True
        for inst in parked:
            if inst in self.active:
                self.active.remove(inst)
                # Do NOT clear response_arrived here: a response that
                # landed earlier this cycle must still wake the park
                # (classic lost-wakeup hazard).
                inst.park_cycle = now
                self.parked.append(inst)
                self.runtime.stats.parked += 1
        return active_cycle

    # -- compiled kernel ---------------------------------------------------
    def _unpark(self, inst: DataflowInstance, now: int) -> None:
        # One check sweep: the nodes a parked instance can step are
        # the ones woken while it was parked (a child's answer, a
        # queue credit, a timer), whose bits it kept.
        inst.idle_cycles = 0
        inst.force_check = True
        inst.last_processed = now - 1
        inst._sleep_attr = None
        inst.on_tile = True
        self.active.append(inst)
        obs = self.runtime.observer
        if obs is not None and obs.enabled and inst.park_cycle >= 0:
            obs.charge_park(inst, now - inst.park_cycle,
                            inst.park_cycle)

    def tick_event(self, now: int) -> bool:
        """Compiled-kernel cycle of a block with work: same phases as
        :meth:`tick`, but the parked list is scanned only when one of
        its instances has a child response or a due retry, and only
        instances with a pending wake are swept."""
        runtime = self.runtime
        active = self.active
        capacity = self.capacity
        active_cycle = False
        if self.has_response and len(active) < capacity:
            still_parked = []
            waiting = False
            for inst in self.parked:
                if inst.response_arrived:
                    if len(active) < capacity:
                        inst.response_arrived = False
                        self._unpark(inst, now)
                        active_cycle = True
                        continue
                    waiting = True
                still_parked.append(inst)
            self.parked = still_parked
            self.has_response = waiting
        ready = self.ready
        while ready and len(active) < capacity and \
                ready[0].not_before <= now:
            inv = ready.popleft()
            self.edge_pending[inv.edge_key] -= 1
            runtime.credit_edge(inv.edge_key)
            pool = self.pool
            if pool:
                inst = pool.pop()
                inst.recycle(inv)
            else:
                inst = DataflowInstance(self.task, runtime, inv)
                inst.block = self
            inst.last_processed = now - 1
            inst.on_tile = True
            active.append(inst)
            runtime.stats.invocations[self.task.name] += 1
            active_cycle = True
        if not ready and self.retry_at <= now and len(active) < capacity:
            still_parked = []
            retry_at = NEVER
            for inst in self.parked:
                retry = inst.enqueue_blocked and \
                    now - inst.park_cycle >= PARK_RETRY_CYCLES
                if retry and len(active) < capacity:
                    inst.response_arrived = False
                    self._unpark(inst, now)
                    # Not an active cycle (see the dense kernel's
                    # retry loop): progress, if any, is reported by
                    # the instance's own sweep below.
                else:
                    still_parked.append(inst)
                    if inst.enqueue_blocked and retry_at == NEVER:
                        retry_at = inst.park_cycle + PARK_RETRY_CYCLES
            self.parked = still_parked
            self.retry_at = retry_at
        runtime.swept = self.index + 1
        finished: List[DataflowInstance] = []
        parked: List[DataflowInstance] = []
        for inst in active:
            # Promote wakes queued in an earlier cycle — this is the
            # hottest guard in the kernel (every active instance of a
            # visited block).
            if inst._next and inst._next_from < now:
                inst._ready |= inst._next
                inst._next = 0
            if not (inst._ready or inst.force_check or inst._carry):
                continue            # asleep: provably activity-free
            inst.process(now)
            if inst._act:
                active_cycle = True
            # Tail: complete, park, or stay on the tile (is_complete's
            # and parkable's cheap guards first: most sweeps fail them).
            if inst.loop_finished and not inst.pending_children and \
                    len(inst.liveouts) >= inst._n_live and \
                    inst.is_complete():
                finished.append(inst)
            elif inst.idle_cycles > PARK_IDLE_THRESHOLD and \
                    inst.parkable():
                parked.append(inst)
            elif inst._ready or inst._next or inst._carry:
                runtime._bnext |= self.bit      # sweeps again next cycle
            else:
                inst.sleep(now)
        for inst in finished:
            active.remove(inst)
            inst.on_tile = False
            runtime.deliver(inst)
            active_cycle = True
            pool = self.pool
            if pool is not None and len(pool) < capacity and \
                    inst._wheel_refs == 0 and inst._eq_regs == 0:
                pool.append(inst)
        for inst in parked:
            if inst in active:
                active.remove(inst)
                inst.on_tile = False
                inst.park_cycle = now
                self.parked.append(inst)
                if inst.response_arrived:
                    self.has_response = True
                if inst.enqueue_blocked:
                    retry = now + PARK_RETRY_CYCLES
                    self.retry_at = min(self.retry_at, retry)
                    runtime.sched.wheel.schedule(retry, self, 0)
                runtime.stats.parked += 1
                obs = runtime.observer
                if obs is not None and obs.tracing:
                    obs.emit("park", inst.task.name, now)
        # A tile freed (or still free): start or unpark next cycle.
        if len(active) < capacity and (
                ready or self.has_response or
                (self.parked and self.retry_at <= now + 1)):
            runtime._bnext |= self.bit
        return active_cycle

    def busy(self) -> bool:
        return bool(self.ready or self.active or self.parked)


class SimRuntime:
    """Owns every TaskBlockSim; routes invocations and completions."""

    ROOT_EDGE = ("__host__", "__root__")

    def __init__(self, circuit, memory_system, stats: SimStats, params,
                 sched=None, observer=None, faults=None, compiled=None,
                 batch=None):
        self.circuit = circuit
        self.memory = memory_system
        self.stats = stats
        self.params = params
        #: Wakeup scheduler (None selects the dense kernel).
        self.sched = sched
        self.observer = observer
        #: Fault injector of the run (None = fault-free).
        self.faults = faults
        #: ``{task name: CompiledTask}`` from :func:`repro.sim.compile.
        #: compile_circuit` (None under the dense kernel).
        self.compiled = compiled
        #: BatchContext when this run steps N lanes at once (payload
        #: values are lane vectors; binders select lane-aware
        #: evaluators on it).  None = ordinary scalar run.
        self.batch = batch
        #: Current cycle (valid during tick/tick_event; the enqueue
        #: path needs it to stamp fault-injected start delays).
        self.now = 0
        self._enq_seq = 0
        #: Instance pooling (DESIGN.md section 8): fault-free scalar
        #: compiled runs only.  The dense kernel always constructs
        #: fresh instances.
        self.pooling = (compiled is not None and faults is None
                        and batch is None)
        self.blocks: Dict[str, TaskBlockSim] = {
            name: TaskBlockSim(task, self, i)
            for i, (name, task) in enumerate(circuit.tasks.items())}
        self.block_list = list(self.blocks.values())
        #: Compiled kernel's block work sets (bit i = ``block_list[i]``):
        #: this cycle's and the next's.
        self._bready = 0
        self._bnext = 0
        #: Blocks below this index have had their slot this cycle
        #: (visited or skipped); the visibility rule routes wakes to
        #: them into the next cycle.
        self.swept = 0
        self.edge_depth: Dict[tuple, int] = {}
        for edge in circuit.task_edges:
            depth = edge.queue_depth if not edge.decoupled else \
                max(edge.queue_depth, params.decoupled_queue_depth)
            self.edge_depth[(edge.parent, edge.child)] = depth
        #: Compiled kernel: call/spawn sims blocked per task edge.
        self.edge_waiters: Dict[tuple, List] = {}
        #: Per-task static wiring and attribution sites of this run;
        #: every label is built here, before the first cycle.
        self.statics: Dict[str, _TaskStatic] = {
            name: _TaskStatic(task, observer)
            for name, task in circuit.tasks.items()}
        self.root_done = False
        self.root_results: Optional[List] = None

    def try_enqueue(self, parent_name: str, callee: str, args,
                    reply, parent) -> bool:
        block = self.blocks.get(callee)
        if block is None:
            raise SimulationError(f"call to unknown task {callee!r}")
        key = (parent_name, callee)
        depth = self.edge_depth.get(key, 4)
        if block.pending_count(key) >= depth:
            return False
        inv = TaskInvocation(args, reply, parent, key)
        if self.faults is not None:
            delay = self.faults.queue_delay(parent_name, callee,
                                            self._enq_seq)
            self._enq_seq += 1
            if delay:
                inv.not_before = self.now + delay
        block.enqueue(inv)
        return True

    def register_edge_waiter(self, key: tuple, instance, sim) -> None:
        self.edge_waiters.setdefault(key, []).append((instance, sim))

    def credit_edge(self, key: tuple) -> None:
        """A queue slot freed: retry every blocked caller on the edge."""
        waiters = self.edge_waiters.get(key)
        if not waiters:
            return
        self.edge_waiters[key] = []
        for instance, sim in waiters:
            sim._eq_registered = False
            instance._eq_regs -= 1
            instance.wake_node(sim.idx)

    def start_root(self, args) -> None:
        root = self.circuit.root_task
        if len(args) != len(root.live_in_types):
            raise SimulationError(
                f"root task {root.name} takes "
                f"{len(root.live_in_types)} args, got {len(args)}")
        self.edge_depth[self.ROOT_EDGE] = 1
        self.blocks[root.name].enqueue(
            TaskInvocation(args, None, None, self.ROOT_EDGE))

    def deliver(self, instance: DataflowInstance) -> None:
        inv = instance.invocation
        parent = inv.parent
        if inv.reply is not None:
            inv.reply.results = instance.results()
            inv.reply.done = True
        elif parent is not None:
            parent.pending_children -= 1
        else:
            self.root_done = True
            self.root_results = instance.results()
        if parent is not None:
            parent.response_arrived = True
            if self.sched is not None:
                parent.on_child_answer()
        obs = self.observer
        if obs is not None and obs.tracing:
            obs.emit("task_done", instance.task.name,
                     self.sched.now if self.sched else 0)

    def tick(self, now: int) -> bool:
        self.now = now
        active = False
        for block in self.block_list:
            active |= block.tick(now)
        return active

    def tick_event(self, now: int) -> bool:
        """Visit the blocks with work, lowest index first; a visit may
        give work to a later block, so the mask is re-read each time."""
        self.now = now
        blocks = self.block_list
        ready = self._bready = self._bready | self._bnext
        self._bnext = 0
        active = False
        while ready:
            low = ready & -ready
            self.swept = low.bit_length() - 1
            if blocks[self.swept].tick_event(now):
                active = True
            ready = self._bready = self._bready ^ low
        self.swept = len(blocks)
        return active
