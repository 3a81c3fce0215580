"""Per-node simulation models.

Each uIR node kind gets a small state machine honouring the
latency-insensitive protocol: fire when every required input channel
has a token (latched channels always do) and internal capacity allows,
retire results in order when the output channels have space.  Function
units are pipelined with the latency / initiation interval from
:mod:`repro.core.oplib`.

A sim's ``tick`` is the node's reference semantics, stepped by the
dense kernel, which sweeps every node every cycle and so needs no
wakes: ``tick`` carries none.  The compiled kernel keeps its state
on these same objects but steps closures (:mod:`repro.sim.compile`)
that replicate ``tick`` and add the wake bookkeeping its scheduler
needs.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..core import oplib
from ..core.lanes import (ctrl, lane_pack_words, lane_select,
                          lane_unpack_words)
from ..core.semantics import eval_compute, poison_value
from ..errors import SimulationError
from .memory import MemRequest


def _fu_fault_extra(node, instance) -> int:
    """Fault-injected extra pipeline depth for a function unit."""
    faults = instance.runtime.faults
    if faults is None:
        return 0
    return faults.fu_extra(instance.task.name, node.name)


class _ForkBuffer:
    """Eager fork: delivers one value independently to each consumer.

    A slow consumer (e.g. a store stalled on ordering) no longer
    blocks its siblings (e.g. a load's address), which would otherwise
    create circular backpressure through tight fanout — standard eager
    fork semantics in latency-insensitive design.
    """

    __slots__ = ("channels", "pending", "value")

    def __init__(self, channels):
        self.channels = channels
        self.pending: List = []
        self.value = None

    def can_accept(self) -> bool:
        return not self.pending

    def accept(self, value, instance) -> None:
        self.value = value
        still = None
        for ch in self.channels:
            if ch.can_push():
                ch.push(value)
                instance._act += 1
            else:
                if still is None:
                    still = []
                still.append(ch)
        self.pending = still if still is not None else []

    def drain(self, instance) -> None:
        if not self.pending:
            return
        still = None
        value = self.value
        for ch in self.pending:
            if ch.can_push():
                ch.push(value)
                instance._act += 1
            else:
                if still is None:
                    still = []
                still.append(ch)
        self.pending = still if still is not None else []


class NodeSim:
    """Base: channel helpers bound to one dataflow instance.

    ``tick`` must be a strict no-op whenever its guards fail: the
    compiled kernel's step closures replicate it, and a spurious wake
    of a node must never change the run.
    """

    # Slotted (here and in every subclass): tens of thousands of sims
    # are live in a big run and the per-tick hot paths are attribute
    # loads, so dropping the per-instance __dict__ pays in both memory
    # and lookup time.
    __slots__ = ("node", "instance", "sink_count", "idx",
                 "_forks", "_fork_list")

    is_iter_sink = False

    def __init__(self, node, instance):
        self.node = node
        self.instance = instance
        self.sink_count = 0
        #: Position in the instance's node list (set at instance
        #: start); doubles as the node's bit in the wake bitmasks.
        self.idx = -1
        self._forks = {}
        for port in node.outputs:
            if port.outgoing:
                self._forks[port.name] = _ForkBuffer(
                    [instance.channels[id(c)] for c in port.outgoing])
        self._fork_list = list(self._forks.values())

    def _in_chans(self, ports):
        """Input channels for ``ports``; None if any port is unwired
        (such a node can never fire — matches _inputs_ready)."""
        chans = []
        for p in ports:
            conn = p.incoming
            if conn is None:
                return None
            chans.append(self.instance.channels[id(conn)])
        return chans

    # -- channel helpers ---------------------------------------------------
    def _chan(self, conn):
        return self.instance.channels[id(conn)]

    def _in_ready(self, port) -> bool:
        conn = port.incoming
        return conn is not None and self._chan(conn).ready()

    def _in_pop(self, port):
        return self._chan(port.incoming).pop()

    def _out_can(self, port) -> bool:
        fork = self._forks.get(port.name)
        return fork is None or fork.can_accept()

    def _out_push(self, port, value) -> None:
        fork = self._forks.get(port.name)
        if fork is not None:
            fork.accept(value, self.instance)
        self.instance._act += 1

    def drain_forks(self) -> None:
        for fork in self._fork_list:
            if fork.pending:
                fork.drain(self.instance)

    def _inputs_ready(self, ports) -> bool:
        return all(self._in_ready(p) for p in ports)

    # -- protocol -----------------------------------------------------------
    def tick(self, now: int) -> None:
        raise NotImplementedError

    def busy(self) -> bool:
        return False

    def reset(self) -> None:
        """Return to the just-constructed state for instance recycling.

        Static wiring (channel lists, fork buffers, latencies) is
        invocation-invariant and survives; only dynamic state is
        cleared.  The instance keeps its compiled step closures, so a
        container a closure captured (a pipe, a record deque, a phi's
        emission history) is cleared in place, never replaced.
        Subclasses extend this for their own state fields.
        The caller guarantees the instance is complete: no in-flight
        memory requests, timers or enqueue registrations point here.
        """
        self.sink_count = 0
        for fork in self._fork_list:
            fork.pending = []
            fork.value = None


class ConstSim(NodeSim):
    """Constant source.  In loop tasks its connections are latched (set
    at instance start); in func tasks it emits one token per consumer
    per invocation.  ``value`` and ``_pending`` (the channels still
    owed a token) are per-invocation state that :meth:`reset`
    re-arms."""

    __slots__ = ("value", "_pending")

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self._arm()

    def _arm(self) -> None:
        self.value = self._source_value()
        self._pending = [self._chan(c) for c in self.node.out.outgoing
                         if not c.latched]

    def _source_value(self):
        return self.node.value

    def tick(self, now: int) -> None:
        if not self._pending:
            return
        remaining = []
        for ch in self._pending:
            if ch.can_push():
                ch.push(self.value)
                self.instance._act += 1
            else:
                remaining.append(ch)
        self._pending = remaining

    def reset(self) -> None:
        super().reset()
        self._arm()


class LiveInSim(ConstSim):
    """Invocation argument source (same emission rule as ConstSim)."""

    __slots__ = ()

    def _source_value(self):
        return self.instance.args[self.node.index]


class LiveOutSim(NodeSim):
    __slots__ = ()

    def tick(self, now: int) -> None:
        if self._in_ready(self.node.inp):
            value = self._in_pop(self.node.inp)
            self.instance.record_liveout(self.node.index, value)
            self.instance._act += 1


class PipelinedSim(NodeSim):
    """Base of the function units (compute, fused, select): results
    wait in ``pipe`` as ``(ready cycle, value)`` pairs and retire in
    order into the output fork."""

    __slots__ = ("pipe", "out_fork")

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.pipe: deque = deque()
        self.out_fork = self._forks.get(node.out.name)

    def _retire(self, now: int) -> None:
        pipe = self.pipe
        fork = self.out_fork
        instance = self.instance
        while pipe and pipe[0][0] <= now:
            if fork is not None:
                if not fork.can_accept():
                    return
                fork.accept(pipe[0][1], instance)
            pipe.popleft()
            instance._act += 1

    def busy(self) -> bool:
        return bool(self.pipe)

    def reset(self) -> None:
        super().reset()
        self.pipe.clear()


class ComputeSim(PipelinedSim):
    """Pipelined function unit for compute/tensor/gep ops."""

    __slots__ = ("latency", "interval", "next_fire", "capacity",
                 "in_chans")

    def __init__(self, node, instance):
        super().__init__(node, instance)
        info = oplib.op_info(node.op, node.out.type)
        self.latency = max(1, info.latency) + _fu_fault_extra(
            node, instance)
        self.interval = max(1, info.initiation_interval)
        self.next_fire = 0
        self.capacity = max(1, self.latency)
        self.in_chans = self._in_chans(node.in_ports)

    def tick(self, now: int) -> None:
        if self.pipe:
            self._retire(now)
        if now < self.next_fire or len(self.pipe) >= self.capacity:
            return
        chans = self.in_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        vals = [ch.pop() for ch in chans]
        if self.node.op == "gep":
            vals = vals + [self.node.gep_scale]
        result = eval_compute(self.node.op, vals, self.node.out.type)
        # The FU's final pipeline register doubles as the edge register:
        # retiring at now+latency-1 (visible after commit) makes the
        # value reach the consumer exactly ``latency`` cycles after the
        # fire.
        self.pipe.append((now + self.latency - 1, result))
        self.next_fire = now + self.interval
        self.instance._act += 1
        self.instance.stats.node_fires[self.node.kind] += 1
        self._retire(now)

    def reset(self) -> None:
        super().reset()
        self.next_fire = 0


class FusedSim(PipelinedSim):
    """One-stage evaluation of a fused expression DAG (implicit
    initiation interval of 1)."""

    __slots__ = ("latency", "in_chans")

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.latency = max(1, node.latency) + _fu_fault_extra(
            node, instance)
        self.in_chans = self._in_chans(node.in_ports)

    def tick(self, now: int) -> None:
        if self.pipe:
            self._retire(now)
        if len(self.pipe) >= self.latency:
            return
        chans = self.in_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        ins = [ch.pop() for ch in chans]
        results: List = []
        for op, refs, rtype, scale in self.node.exprs:
            vals = [ins[i] if kind == "in" else results[i]
                    for kind, i in refs]
            if op == "gep":
                vals = vals + [scale]
            results.append(eval_compute(op, vals, rtype))
        self.pipe.append((now + self.latency - 1, results[-1]))
        self.instance._act += 1
        self.instance.stats.node_fires["fused"] += 1
        self._retire(now)


class SelectSim(PipelinedSim):
    __slots__ = ("in_chans",)

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.in_chans = self._in_chans([node.cond, node.a, node.b])

    def tick(self, now: int) -> None:
        if self.pipe:
            self._retire(now)
        chans = self.in_chans
        if self.pipe or chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        cond = chans[0].pop()
        a = chans[1].pop()
        b = chans[2].pop()
        # A lane-divergent condition is data, not control: each lane
        # picks its own arm (lane_select's scalar fast path is the
        # plain conditional expression).
        self.pipe.append((now, lane_select(cond, a, b)))
        self.instance._act += 1
        self._retire(now)


class PhiSim(NodeSim):
    """Loop-carried value sequencer (see core.nodes.PhiNode)."""

    __slots__ = ("inited", "init_val", "next_val", "have_next",
                 "emitted", "backs", "last_back", "last_emitted",
                 "final_pushed", "emit_history", "init_chan",
                 "back_chan", "out_fork")

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.inited = False
        self.init_val = None
        self.next_val = None
        self.have_next = False
        self.emitted = 0
        self.backs = 0
        self.last_back = None
        self.last_emitted = None
        self.final_pushed = False
        # Conditional loops may speculatively emit past the failing
        # check; the live-out is the value at check #trips-1, so keep
        # the emission history (bounded by trips + channel slack).
        self.emit_history: List = []
        conn = node.init.incoming
        self.init_chan = instance.channels[id(conn)] if conn else None
        conn = node.back.incoming
        self.back_chan = instance.channels[id(conn)] if conn else None
        self.out_fork = self._forks.get(node.out.name)

    def tick(self, now: int) -> None:
        instance = self.instance
        if not self.inited:
            ch = self.init_chan
            if ch is None or not ch.ready():
                return
            self.init_val = ch.pop()
            self.next_val = self.init_val
            self.have_next = True
            self.inited = True
            instance._act += 1
        # Accept the back token before emitting so a value arriving
        # this cycle forwards without an extra stage (the phi mux is
        # combinational; only its state register is clocked).
        if not self.have_next:
            trips = instance.loop_trips
            ch = self.back_chan
            if ch is not None and ch.ready() and \
                    (trips is None or self.backs < trips):
                value = ch.pop()
                self.backs += 1
                self.last_back = value
                self.sink_count = self.backs
                self.next_val = value
                self.have_next = True
                instance._act += 1
        if self.have_next:
            fork = self.out_fork
            if fork is None or fork.can_accept():
                if fork is not None:
                    fork.accept(self.next_val, instance)
                instance._act += 1
                self.last_emitted = self.next_val
                if instance.loop_conditional:
                    self.emit_history.append(self.next_val)
                self.emitted += 1
                self.have_next = False
        self._maybe_push_final(now)

    def _maybe_push_final(self, now: int) -> None:
        node = self.node
        if self.final_pushed or not node.final.outgoing:
            return
        if not self.instance.loop_finished:
            return
        trips = self.instance.loop_trips or 0
        if self.instance.loop_conditional:
            # Conditional loops always issue at least one check.
            if self.emitted < trips:
                return
            value = self.emit_history[trips - 1]
        else:
            if trips == 0:
                value = self.init_val
                if not self.inited:
                    return
            elif self.backs >= trips:
                value = self.last_back
            else:
                return
        if self._out_can(node.final):
            self._out_push(node.final, value)
            self.final_pushed = True

    def busy(self) -> bool:
        # A phi holding state is not "outstanding work"; completion is
        # gated by loop_finished + liveouts instead.
        return False

    def reset(self) -> None:
        super().reset()
        self.inited = False
        self.init_val = None
        self.next_val = None
        self.have_next = False
        self.emitted = 0
        self.backs = 0
        self.last_back = None
        self.last_emitted = None
        self.final_pushed = False
        # In place: the compiled phi step captures the list.
        self.emit_history.clear()


class LoopControlSim(NodeSim):
    """Iteration sequencer."""

    __slots__ = ("started", "finished", "issued", "trips",
                 "next_issue", "start_v", "step_v", "done_pushed",
                 "final_pushed", "start_chans", "cont_chan")

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.started = False
        self.finished = False
        self.issued = 0
        self.trips: Optional[int] = None
        self.next_issue = 0
        self.start_v = 0
        self.step_v = 1
        self.done_pushed = False
        self.final_pushed = False
        self.start_chans = self._in_chans([node.start, node.bound,
                                           node.step])
        cont = getattr(node, "cont", None)
        conn = cont.incoming if cont is not None else None
        self.cont_chan = instance.channels[id(conn)] if conn else None

    def tick(self, now: int) -> None:
        node = self.node
        if not self.started:
            chans = self.start_chans
            if chans is None:
                return
            for ch in chans:
                if not ch.ready():
                    return
            # Loop bounds are control: a batched run must see them
            # lane-uniform (ctrl unwraps or raises LaneDivergence;
            # scalar runs pass through untouched).
            self.start_v = ctrl(chans[0].pop())
            bound_v = ctrl(chans[1].pop())
            self.step_v = ctrl(chans[2].pop())
            self.started = True
            self.instance._act += 1
            if not node.conditional:
                self.trips = self._count_trips(self.start_v, bound_v,
                                               self.step_v)
                self.instance.loop_trips = self.trips
        if not self.started or self.finished:
            self._maybe_finish_outputs(now)
            return
        if node.conditional:
            self._tick_conditional(now)
        else:
            self._tick_counted(now)
        self._maybe_finish_outputs(now)

    @staticmethod
    def _count_trips(start: int, bound: int, step: int) -> int:
        if step <= 0:
            raise SimulationError(
                f"loop with non-positive step {step}")
        if start >= bound:
            return 0
        return (bound - start + step - 1) // step

    def _in_flight(self) -> int:
        return self.issued - self.instance.completed_iterations()

    def _tick_counted(self, now: int) -> None:
        node = self.node
        if self.issued >= self.trips:
            self._finish(now)
            return
        if now < self.next_issue:
            return
        if self._in_flight() >= node.max_in_flight:
            return
        if not (self._out_can(node.index) and self._out_can(node.active)):
            return
        index = self.start_v + self.issued * self.step_v
        self._out_push(node.index, index)
        self._out_push(node.active, True)
        self.issued += 1
        self.next_issue = now + max(1, node.pipeline_stages)
        self.instance.stats.iterations[self.instance.task.name] += 1

    def _tick_conditional(self, now: int) -> None:
        node = self.node
        if self.issued == 0:
            if now >= self.next_issue and \
                    self._out_can(node.index) and \
                    self._out_can(node.active):
                self._out_push(node.index, self.start_v)
                self._out_push(node.active, True)
                self.issued = 1
                self.next_issue = now + max(1, node.pipeline_stages)
                self.instance.stats.iterations[
                    self.instance.task.name] += 1
            return
        # Wait for the continue token of the previous iteration.
        ch = self.cont_chan
        if ch is None or not ch.ready():
            return
        if now < self.next_issue or \
                self._in_flight() >= node.max_in_flight:
            return
        if not (self._out_can(node.index) and self._out_can(node.active)):
            return
        cont = ch.pop()
        self.instance._act += 1
        if not cont:
            self.trips = self.issued
            self._finish(now)
            return
        index = self.start_v + self.issued * self.step_v
        self._out_push(node.index, index)
        self._out_push(node.active, True)
        self.issued += 1
        self.next_issue = now + max(1, node.pipeline_stages)
        self.instance.stats.iterations[self.instance.task.name] += 1

    def _finish(self, now: int) -> None:
        if self.finished:
            return
        self.finished = True
        self.instance.loop_trips = self.issued if self.node.conditional \
            else self.trips
        self.instance.loop_finished = True
        self.instance._act += 1

    def _maybe_finish_outputs(self, now: int) -> None:
        node = self.node
        if not self.finished:
            return
        if not self.done_pushed and node.done.outgoing and \
                self._out_can(node.done):
            self._out_push(node.done, True)
            self.done_pushed = True
        if not self.final_pushed and node.final.outgoing and \
                self._out_can(node.final):
            final = self.start_v + self.issued * self.step_v
            self._out_push(node.final, final)
            self.final_pushed = True

    def busy(self) -> bool:
        return self.started and not self.finished

    def reset(self) -> None:
        super().reset()
        self.started = False
        self.finished = False
        self.issued = 0
        self.trips = None
        self.next_issue = 0
        self.start_v = 0
        self.step_v = 1
        self.done_pushed = False
        self.final_pushed = False


class _MemRecord:
    __slots__ = ("remaining", "words", "poison", "value")

    def __init__(self, words: int, poison: bool = False):
        self.remaining = words
        self.words: List = [None] * words
        self.poison = poison
        self.value = None


class LoadSim(NodeSim):
    """Load transit node with databox widening."""

    __slots__ = ("records", "junction_sim", "words", "req_chans",
                 "has_pred", "has_order")

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.records: deque = deque()
        self.junction_sim = instance.junction_sim_for(node)
        self.words = node.out.type.words
        ports = [node.addr]
        if node.pred is not None:
            ports.append(node.pred)
        if node.order_in is not None:
            ports.append(node.order_in)
        self.req_chans = self._in_chans(ports)
        self.has_pred = node.pred is not None
        self.has_order = node.order_in is not None

    def tick(self, now: int) -> None:
        node = self.node
        # Retire in order.
        while self.records and self.records[0].remaining == 0:
            if not (self._out_can(node.out) and self._out_can(node.done)):
                break
            rec = self.records.popleft()
            if rec.poison:
                value = poison_value(node.out.type)
            elif self.words == 1:
                value = rec.words[0]
            else:
                # Lane-indexed words lift the whole payload to one
                # tuple per lane; uniform words stay a plain tuple.
                value = lane_pack_words(rec.words)
            self._out_push(node.out, value)
            self._out_push(node.done, True)
            self.sink_count += 1
        # Fire.
        if len(self.records) >= node.max_outstanding:
            return
        chans = self.req_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        addr = chans[0].pop()
        enabled = True
        pos = 1
        if self.has_pred:
            enabled = bool(chans[1].pop())
            pos = 2
        if self.has_order:
            chans[pos].pop()
        self.instance._act += 1
        if not enabled:
            self.records.append(_MemRecord(0, poison=True))
            return
        rec = _MemRecord(self.words)
        self.records.append(rec)
        self.instance.stats.memory_reads += self.words
        base = int(addr)
        for w in range(self.words):
            def on_done(req, r=rec, i=w):
                r.words[i] = req.value
                r.remaining -= 1
            self.junction_sim.submit(
                MemRequest(base + w, False, on_done=on_done))

    def busy(self) -> bool:
        return bool(self.records)

    def reset(self) -> None:
        super().reset()
        self.records.clear()


class StoreSim(NodeSim):
    __slots__ = ("records", "junction_sim", "words", "req_chans",
                 "has_pred", "has_order")

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.records: deque = deque()
        self.junction_sim = instance.junction_sim_for(node)
        self.words = node.value_type.words
        ports = [node.addr, node.data]
        if node.pred is not None:
            ports.append(node.pred)
        if node.order_in is not None:
            ports.append(node.order_in)
        self.req_chans = self._in_chans(ports)
        self.has_pred = node.pred is not None
        self.has_order = node.order_in is not None

    def tick(self, now: int) -> None:
        node = self.node
        while self.records and self.records[0].remaining == 0:
            if not self._out_can(node.done):
                break
            self.records.popleft()
            self._out_push(node.done, True)
            self.sink_count += 1
        if len(self.records) >= node.max_outstanding:
            return
        chans = self.req_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        addr = chans[0].pop()
        data = chans[1].pop()
        enabled = True
        pos = 2
        if self.has_pred:
            enabled = bool(chans[2].pop())
            pos = 3
        if self.has_order:
            chans[pos].pop()
        self.instance._act += 1
        if not enabled:
            self.records.append(_MemRecord(0, poison=True))
            return
        rec = _MemRecord(self.words)
        self.records.append(rec)
        self.instance.stats.memory_writes += self.words
        base = int(addr)
        values = (lane_unpack_words(data, self.words)
                  if self.words > 1 else [data])
        for w in range(self.words):
            def on_done(req, r=rec):
                r.remaining -= 1
            self.junction_sim.submit(
                MemRequest(base + w, True, value=values[w],
                           on_done=on_done))

    def busy(self) -> bool:
        return bool(self.records)

    def reset(self) -> None:
        super().reset()
        self.records.clear()


class _CallRecord:
    __slots__ = ("done", "results", "poison")

    def __init__(self, poison: bool = False):
        self.done = poison
        self.results: List = []
        self.poison = poison


class CallSim(NodeSim):
    __slots__ = ("records", "req_chans", "n_args", "has_pred",
                 "_eq_blocked", "_eq_registered")

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        # Sticky enqueue-blocked state for the compiled kernel (see
        # DataflowInstance.note_enqueue_blocked).
        self._eq_blocked = False
        self._eq_registered = False
        self.records: deque = deque()
        ports = list(node.arg_ports)
        if node.pred is not None:
            ports.append(node.pred)
        if node.order_in is not None:
            ports.append(node.order_in)
        self.req_chans = self._in_chans(ports)
        self.n_args = len(node.arg_ports)
        self.has_pred = node.pred is not None

    def _max_outstanding(self) -> int:
        return 1 if self.node.serialize else self.node.max_outstanding

    def tick(self, now: int) -> None:
        node = self.node
        # Retire in order.
        while self.records and self.records[0].done:
            ret_ok = all(self._out_can(p) for p in node.ret_ports)
            if not (ret_ok and self._out_can(node.order_out)):
                break
            rec = self.records.popleft()
            for i, port in enumerate(node.ret_ports):
                if rec.poison or i >= len(rec.results):
                    self._out_push(port, poison_value(port.type))
                else:
                    self._out_push(port, rec.results[i])
            self._out_push(node.order_out, True)
            self.sink_count += 1
            self.instance.calls_outstanding -= 1
        if len(self.records) >= self._max_outstanding():
            return
        chans = self.req_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        # Peek the predicate before committing to an enqueue.
        enabled = True
        if self.has_pred:
            enabled = bool(chans[self.n_args].peek())
        if enabled:
            rec = _CallRecord()
            args = [chans[i].peek() for i in range(self.n_args)]
            ok = self.instance.runtime.try_enqueue(
                self.instance.task.name, node.callee, args,
                reply=rec, parent=self.instance)
            if not ok:
                self.instance.enqueue_blocked = True
                return
        else:
            rec = _CallRecord(poison=True)
        for ch in chans:
            ch.pop()
        self.records.append(rec)
        self.instance.calls_outstanding += 1
        self.instance._act += 1

    def busy(self) -> bool:
        return bool(self.records)

    def reset(self) -> None:
        super().reset()
        self.records.clear()
        self._eq_blocked = False
        self._eq_registered = False


class SpawnSim(NodeSim):
    __slots__ = ("req_chans", "n_args", "has_pred",
                 "_eq_blocked", "_eq_registered")

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self._eq_blocked = False
        self._eq_registered = False
        ports = list(node.arg_ports)
        if node.pred is not None:
            ports.append(node.pred)
        if node.order_in is not None:
            ports.append(node.order_in)
        self.req_chans = self._in_chans(ports)
        self.n_args = len(node.arg_ports)
        self.has_pred = node.pred is not None

    def tick(self, now: int) -> None:
        node = self.node
        if not self._out_can(node.issued):
            return
        chans = self.req_chans
        if chans is None:
            return
        for ch in chans:
            if not ch.ready():
                return
        enabled = True
        if self.has_pred:
            enabled = bool(chans[self.n_args].peek())
        if enabled:
            args = [chans[i].peek() for i in range(self.n_args)]
            ok = self.instance.runtime.try_enqueue(
                self.instance.task.name, node.callee, args,
                reply=None, parent=self.instance)
            if not ok:
                self.instance.enqueue_blocked = True
                return
            self.instance.pending_children += 1
        for ch in chans:
            ch.pop()
        self._out_push(node.issued, True)
        self.sink_count += 1
        self.instance._act += 1

    def reset(self) -> None:
        super().reset()
        self._eq_blocked = False
        self._eq_registered = False


class SyncSim(NodeSim):
    """Barrier: fires once all children spawned so far have completed."""

    __slots__ = ("fired",)

    is_iter_sink = True

    def __init__(self, node, instance):
        super().__init__(node, instance)
        self.fired = False

    def tick(self, now: int) -> None:
        node = self.node
        if self.fired:
            return
        if node.order_in is not None and not self._in_ready(node.order_in):
            return
        if self.instance.pending_children > 0:
            return
        if not self._out_can(node.done):
            return
        if node.order_in is not None:
            self._in_pop(node.order_in)
        self._out_push(node.done, True)
        self.fired = True
        self.sink_count = 1

    def busy(self) -> bool:
        return False

    def reset(self) -> None:
        super().reset()
        self.fired = False


SIM_CLASSES = {
    "const": ConstSim,
    "livein": LiveInSim,
    "liveout": LiveOutSim,
    "compute": ComputeSim,
    "tensor": ComputeSim,
    "fused": FusedSim,
    "select": SelectSim,
    "phi": PhiSim,
    "loopctl": LoopControlSim,
    "load": LoadSim,
    "store": StoreSim,
    "call": CallSim,
    "spawn": SpawnSim,
    "sync": SyncSim,
}


def make_node_sim(node, instance) -> NodeSim:
    try:
        cls = SIM_CLASSES[node.kind]
    except KeyError:
        raise SimulationError(f"no simulator for node kind {node.kind!r}")
    return cls(node, instance)
