"""Compiled simulation kernel: circuit -> dispatch-free step closures.

``kernel="compiled"`` is wakeup-driven: its scheduler
(:mod:`repro.sim.task`, :mod:`repro.sim.events`) fixes *which* nodes
step each cycle, and this module fixes *how much one step costs*.
Instead of a polymorphic ``sim.tick(now)`` — a method call and a body
full of ``self.x.y`` chains — every node instance gets a
**specialized step closure** bound once when the instance is built,
with everything the body touches bound as closure locals:

* channel endpoints (*ready tokens*: the channel's ``queue`` deque for
  FIFO edges, truthy exactly when a token is visible; the latched
  channel itself for invariant edges — see ``LatchedChannel.__bool__``),
* interned ``pop``/``peek`` bound methods per input edge (producer-side
  ``can_push``/``push`` stay dynamic calls: fault channels override
  them, and the fork buffers route through them),
* the FU's fault-adjusted latency / initiation interval as plain ints,
* the node's fork buffers, with the sweep-loop fork pre-drain folded
  into the step prologue,
* a pre-resolved operation evaluator
  (:func:`repro.core.semantics.specialize_compute_pos`) that skips the
  op string-compare chain and the per-fire type dispatch.

Function units are unrolled only in the shapes the workloads step:
a compute unit with two wired inputs and an output fork
(combinational, II 1 and II > 1) and a combinational fused region
with a fork.  On one pass of the eval-sim op set those take 47,118
of the 69,341 node steps; every other FU shape (one or three inputs,
no consumer, a fused region lengthened by a fault plan) takes one
loop-based ``generic_step`` per kind, which carries at most 1.5 % of
any benchmark workload's node steps.

Each closure replicates the matching ``NodeSim.tick`` *exactly* —
guard order, ``instance._act`` increments, stats counters — plus the
scheduler bookkeeping ``tick`` does not carry (the dense kernel steps
``tick`` and sweeps every node every cycle, so it needs none): set
the sweep cursor, drain pending forks, arm a timer for every
``now``-dependent guard (``instance.schedule_node``), wake the nodes
an action may unblock (``wake_node``, ``on_sink_progress``,
``on_loop_finished``, the enqueue-blocked notes), note a loop
control that waits on its in-flight window (``_window_wait``), and
rearm a node that acted and may act again with no further event
(:func:`_rearm_locals`).  A node steps only when an event can change
one of its guards, except on an instance's first sweep (every node)
and on a token arrival, which wakes the consumer even while a
sibling input is still empty.  The compiled kernel is bit-identical
to the dense kernel by the superset-sweep argument (a step is a
strict no-op when its guards fail) as long as its wakes miss no
acting node.  All per-invocation state stays on the sim object,
where outside observers (stall classification, deadlock
diagnostics, completion gating) and ``reset`` reach it: ``records``,
``sink_count``, ``started``/``finished``/``issued``, a compute unit's
``next_fire``, a source's owed channels and value.  A closure
captures only what is fixed for the instance's life or what
``reset`` clears in place, so a recycled instance keeps its steps.

Compilation is two-phase:

* **compile** (:func:`compile_circuit`) — per task, select a binder
  per node position and precompute node-content data (specialized
  evaluators, poison values, trip arithmetic constants).  Every
  compiled run compiles the circuit it is given, and nothing keeps
  the plan.  A plan costs less than the circuit hash a cache would
  need to find it (0.02-0.17 ms to build against 0.26-1.6 ms to
  fingerprint, on the eval-sim circuits, Python 3.11.7 on a 2-vCPU
  host), and uopt passes rewrite circuits in place, so a plan kept
  for a circuit object goes stale once a pass edits it.
* **bind** (:meth:`CompiledTask.bind`) — once per instance, when it
  is built, close each binder over that instance's channels, forks
  and fault-adjusted latencies.  Binders only do O(ports) work, and a
  pooled instance recycled for a new invocation keeps its closures.

Every node kind the simulator knows (:data:`repro.sim.nodesim.
SIM_CLASSES`) has a step compiler, so every circuit compiles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.lanes import (ctrl, lane_lift_list, lane_lift_pos,
                          lane_pack_words, lane_select,
                          lane_unpack_words)
from ..core.semantics import (poison_value, specialize_compute,
                              specialize_compute_pos)
from .channel import ready_token
from .nodesim import _CallRecord, _MemRecord, LoopControlSim
from .memory import MemRequest


def _nop(now: int) -> None:
    """Step for nodes that can never act (unwired inputs, no work)."""


def _tokens_pops(chans):
    return (tuple(ready_token(ch) for ch in chans),
            tuple(ch.pop for ch in chans))


def _fork_accept(fork):
    """Per-fork accept, specialized for single-consumer forks.

    ``_ForkBuffer.accept`` loops over the fork's channels and
    allocates a fresh pending list per call; the overwhelmingly common
    single-consumer fork needs neither.  Every call site in this
    module guards on ``fork.pending`` first (accept is only reached
    when the fork is drained), so the specialized form keeps the
    existing empty pending list instead of allocating a new one."""
    chans = fork.channels
    if len(chans) != 1:
        return fork.accept
    ch, = chans
    can_push = ch.can_push
    push = ch.push

    def accept(value, instance):
        fork.value = value
        if can_push():
            push(value)
            instance._act += 1
            if fork.pending:
                fork.pending = []
        else:
            fork.pending = [ch]

    return accept


def _rearm_locals(sim):
    """(idx, bit) for a binder's self-rearm tail.

    A node that acted may act again next cycle, when the dense sweep
    would look at it again, so every step sets the sweep cursor first
    and then, on a path that acted (``_act`` changed) and may act
    again without another event, wakes the node for next cycle:

        inst._next |= bit

    Multi-exit bodies do it in a ``try/finally`` guarded by an ``_act``
    snapshot (zero-cost on the non-exception path under CPython 3.11's
    exception tables); single-act bodies test directly.  The sweep
    stamps ``_next`` with the current cycle before the first step, so
    the tail needs no promote check.

    Wakes cover every other way a node can act next cycle: token
    arrivals by the commit wake, blocked forks and sources by the
    consumer's ``pop`` on the channel that refused them, future
    retires and initiation gaps by timers, memory completions by the
    request's callback, a loop control at its in-flight window by the
    sinks' progress.  So function units (compute/tensor/fused) and
    sources never self-rearm — a function unit's step wakes itself
    only for an immediate back-to-back fire (interval 1, pipe space,
    inputs still ready) — and loads and stores rearm only after a
    fire that leaves their request inputs holding a token and a
    record slot free."""
    return sim.idx, 1 << sim.idx


# ---------------------------------------------------------------------------
# Per-kind binders.  Each ``_bind_<kind>(sim, inst, data)`` returns a
# ``step(now)`` closure replicating ``<Kind>Sim.tick``, fork pre-drain
# and wakes included.
# ---------------------------------------------------------------------------

def _bind_source(sim, inst, data):
    """const / livein: one token per (non-latched) consumer edge.  The
    owed channels and the value are per invocation: read from the sim,
    which ``reset`` re-arms.  A source never rearms: a channel that
    refused it a token wakes it on the consumer's ``pop`` (or a stall
    window's end timer), and one that owes nothing has nothing to do."""
    if not sim._pending:
        return _nop
    idx = sim.idx

    def step(now):
        inst._cursor = idx
        pending = sim._pending
        if not pending:
            return
        value = sim.value
        remaining = []
        for ch in pending:
            if ch.can_push():
                ch.push(value)
                inst._act += 1
            else:
                remaining.append(ch)
        sim._pending = remaining

    return step


def _bind_liveout(sim, inst, data):
    conn = sim.node.inp.incoming
    if conn is None:
        return _nop
    ch = inst.channels[id(conn)]
    token = ready_token(ch)
    pop = ch.pop
    index = sim.node.index
    record = inst.record_liveout
    idx, bit = _rearm_locals(sim)

    def step(now):
        inst._cursor = idx
        if token:
            record(index, pop())
            inst._act += 1
            inst._next |= bit

    return step


def _bind_compute(sim, inst, data):
    """compute/tensor FU step.

    Only the shape the workloads step gets unrolled closures: two
    wired inputs and a wired output fork, in its combinational, II 1
    and II > 1 forms (on one pass of the eval-sim op set, 11,592,
    23,348 and 2,866 of the 69,341 node steps).  Those closures test
    the two ready tokens, pop straight into a positional evaluator (no
    operand-list allocation) and inline both in-order retire loops.
    Every other shape (one or three inputs, no consumer) takes
    ``generic_step``, the loop-based twin of ``ComputeSim.tick``: at
    most 1.5 % of any benchmark workload's node steps.

    In a batched runtime the evaluators are swapped for lane-lifted
    twins at bind time; the scalar closures below are byte-identical
    either way, so the single-instance compiled kernel pays nothing."""
    chans = sim.in_chans
    if chans is None:
        return _nop
    arity, fpos, flist = data
    batch = inst.runtime.batch is not None
    fork = sim.out_fork
    pipe = sim.pipe
    latency = sim.latency
    interval = sim.interval
    capacity = sim.capacity
    idx = sim.idx
    kind = sim.node.kind
    sched = inst.schedule_node
    wake = inst.wake_node
    fires = inst.stats.node_fires
    popleft = pipe.popleft
    append = pipe.append
    if fork is not None and arity == len(chans) == 2:
        if batch:
            fpos = lane_lift_pos(fpos)
        accept = _fork_accept(fork)
        drain = fork.drain
        ca, cb = chans
        qa = ready_token(ca)
        qb = ready_token(cb)
        pa = ca.pop
        pb = cb.pop
        if latency == 1 and interval == 1:
            # Combinational FU: capacity == max(1, latency) == 1, so
            # the pipe holds at most the single output of a fire whose
            # fork was blocked, and ``now < next_fire`` can never hold
            # (a node steps at most once per cycle).  The result
            # usually goes straight to the fork without touching the
            # pipe deque at all.
            def step(now):
                inst._cursor = idx
                if fork.pending:
                    drain(inst)
                if pipe:
                    if fork.pending:
                        return
                    accept(pipe[0][1], inst)
                    popleft()
                    inst._act += 1
                if not qa or not qb:
                    return
                result = fpos(pa(), pb())
                inst._act += 1
                fires[kind] += 1
                if fork.pending:
                    append((now, result))
                    return
                accept(result, inst)
                inst._act += 1
                if qa and qb:
                    wake(idx)

            return step
        if interval == 1:
            # Fully pipelined FU (II == 1): ``now < next_fire`` can
            # never hold (a node steps at most once per cycle), so the
            # issue-throttle machinery vanishes.
            def step(now):
                inst._cursor = idx
                if fork.pending:
                    drain(inst)
                while pipe and pipe[0][0] <= now:
                    if fork.pending:
                        break
                    accept(pipe[0][1], inst)
                    popleft()
                    inst._act += 1
                if len(pipe) >= capacity or not qa or not qb:
                    return
                append((now + latency - 1, fpos(pa(), pb())))
                sched(idx, now + latency - 1)
                inst._act += 1
                fires[kind] += 1
                if len(pipe) < capacity and qa and qb:
                    wake(idx)

            return step

        # II > 1 (div, rem, fdiv): the issue cursor lives on the sim,
        # and a timer wakes the unit when it may issue again.
        def step(now):
            inst._cursor = idx
            if fork.pending:
                drain(inst)
            while pipe and pipe[0][0] <= now:
                if fork.pending:
                    break
                accept(pipe[0][1], inst)
                popleft()
                inst._act += 1
            if now < sim.next_fire or len(pipe) >= capacity \
                    or not qa or not qb:
                return
            append((now + latency - 1, fpos(pa(), pb())))
            next_fire = sim.next_fire = now + interval
            if latency > 1:
                sched(idx, now + latency - 1)
            sched(idx, next_fire)
            inst._act += 1
            fires[kind] += 1
            while pipe and pipe[0][0] <= now:
                if fork.pending:
                    break
                accept(pipe[0][1], inst)
                popleft()
                inst._act += 1

        return step

    if batch:
        flist = lane_lift_list(flist)
    tokens, pops = _tokens_pops(chans)

    def generic_step(now):
        inst._cursor = idx
        if fork is not None and fork.pending:
            fork.drain(inst)
        while pipe and pipe[0][0] <= now:
            if fork is not None:
                if fork.pending:
                    break
                fork.accept(pipe[0][1], inst)
            popleft()
            inst._act += 1
        if now < sim.next_fire or len(pipe) >= capacity:
            return
        for tok in tokens:
            if not tok:
                return
        vals = [pop() for pop in pops]
        append((now + latency - 1, flist(vals)))
        next_fire = sim.next_fire = now + interval
        if latency > 1:
            sched(idx, now + latency - 1)
        if interval > 1:
            sched(idx, next_fire)
        inst._act += 1
        fires[kind] += 1
        while pipe and pipe[0][0] <= now:
            if fork is not None:
                if fork.pending:
                    break
                fork.accept(pipe[0][1], inst)
            popleft()
            inst._act += 1
        if interval == 1 and len(pipe) < capacity:
            for tok in tokens:
                if not tok:
                    break
            else:
                wake(idx)

    return generic_step


def _bind_fused(sim, inst, evalf):
    """Fused-region step.  A combinational region with a wired output
    fork, the only shape the workloads build (9,312 of the 69,341
    node steps of one eval-sim pass), gets its own closure, with the
    compute comb path's argument: capacity 1, one step per cycle.  A
    region lengthened by a fault plan's FU latency or with no
    consumer takes ``generic_step``, the twin of ``FusedSim.tick``."""
    chans = sim.in_chans
    if chans is None:
        return _nop
    if inst.runtime.batch is not None:
        evalf = lane_lift_list(evalf)
    tokens, pops = _tokens_pops(chans)
    fork = sim.out_fork
    pipe = sim.pipe
    latency = sim.latency
    idx = sim.idx
    sched = inst.schedule_node
    wake = inst.wake_node
    fires = inst.stats.node_fires
    popleft = pipe.popleft
    append = pipe.append
    if fork is not None and latency == 1:
        accept = _fork_accept(fork)
        drain = fork.drain

        def step(now):
            inst._cursor = idx
            if fork.pending:
                drain(inst)
            if pipe:
                if fork.pending:
                    return
                accept(pipe[0][1], inst)
                popleft()
                inst._act += 1
            for tok in tokens:
                if not tok:
                    return
            ins = [pop() for pop in pops]
            result = evalf(ins)
            inst._act += 1
            fires["fused"] += 1
            if fork.pending:
                append((now, result))
                return
            accept(result, inst)
            inst._act += 1
            for tok in tokens:
                if not tok:
                    break
            else:
                wake(idx)

        return step

    def generic_step(now):
        inst._cursor = idx
        if fork is not None and fork.pending:
            fork.drain(inst)
        while pipe and pipe[0][0] <= now:
            if fork is not None:
                if fork.pending:
                    break
                fork.accept(pipe[0][1], inst)
            popleft()
            inst._act += 1
        if len(pipe) >= latency:
            return
        for tok in tokens:
            if not tok:
                return
        ins = [pop() for pop in pops]
        append((now + latency - 1, evalf(ins)))
        if latency > 1:
            sched(idx, now + latency - 1)
        inst._act += 1
        fires["fused"] += 1
        while pipe and pipe[0][0] <= now:
            if fork is not None:
                if fork.pending:
                    break
                fork.accept(pipe[0][1], inst)
            popleft()
            inst._act += 1
        if len(pipe) < latency:
            for tok in tokens:
                if not tok:
                    break
            else:
                wake(idx)

    return generic_step


def _bind_select(sim, inst, data):
    """select step, one closure for both shapes.  The pipe holds at
    most the one result a blocked fork refused; with no consumer a
    result retires in the cycle it is made, as ``SelectSim.tick``'s
    retire loop does."""
    chans = sim.in_chans
    if chans is None:
        return _nop
    (tc, ta, tb), (pc, pa, pb) = _tokens_pops(chans)
    fork = sim.out_fork
    pipe = sim.pipe
    popleft = pipe.popleft
    append = pipe.append
    # A lane-divergent select condition is data, not control: pick
    # per lane instead of truth-testing (batched runtimes only; the
    # scalar path keeps the raw conditional).
    batch = inst.runtime.batch is not None
    idx, bit = _rearm_locals(sim)
    accept = _fork_accept(fork) if fork is not None else None

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            if fork is not None:
                if fork.pending:
                    fork.drain(inst)
                if pipe:
                    if fork.pending:
                        return
                    accept(pipe[0][1], inst)
                    popleft()
                    inst._act += 1
            if not tc or not ta or not tb:
                return
            cond = pc()
            a = pa()
            b = pb()
            result = (lane_select(cond, a, b) if batch
                      else (a if cond else b))
            inst._act += 1
            if fork is None:
                inst._act += 1
            elif fork.pending:
                append((now, result))
                return
            else:
                accept(result, inst)
                inst._act += 1
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


def _bind_phi(sim, inst, data):
    node = sim.node
    init_ch = sim.init_chan
    init_tok = ready_token(init_ch) if init_ch is not None else None
    init_pop = init_ch.pop if init_ch is not None else None
    back_ch = sim.back_chan
    back_tok = ready_token(back_ch) if back_ch is not None else None
    back_pop = back_ch.pop if back_ch is not None else None
    fork = sim.out_fork
    final_fork = sim._forks.get(node.final.name)
    has_final = bool(node.final.outgoing)
    conditional = inst.loop_conditional
    emit_history = sim.emit_history
    forks = sim._fork_list
    on_sink = inst.on_sink_progress
    idx, bit = _rearm_locals(sim)
    fork_accept = _fork_accept(fork) if fork is not None else None
    final_accept = _fork_accept(final_fork) \
        if final_fork is not None else None

    def push_final(value):
        # _out_can + _out_push on node.final, mirrored.
        if final_fork is not None:
            if final_fork.pending:
                return
            final_accept(value, inst)
        inst._act += 1
        sim.final_pushed = True

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            for f in forks:
                if f.pending:
                    f.drain(inst)
            if not sim.inited:
                if init_ch is None or not init_tok:
                    return
                value = init_pop()
                sim.init_val = value
                sim.next_val = value
                sim.have_next = True
                sim.inited = True
                inst._act += 1
            if not sim.have_next:
                trips = inst.loop_trips
                if back_ch is not None and back_tok and \
                        (trips is None or sim.backs < trips):
                    value = back_pop()
                    sim.backs += 1
                    sim.last_back = value
                    sim.sink_count = sim.backs
                    sim.next_val = value
                    sim.have_next = True
                    inst._act += 1
                    on_sink()
            if sim.have_next:
                if fork is None or not fork.pending:
                    if fork is not None:
                        fork_accept(sim.next_val, inst)
                    inst._act += 1
                    sim.last_emitted = sim.next_val
                    if conditional:
                        emit_history.append(sim.next_val)
                    sim.emitted += 1
                    sim.have_next = False
            # _maybe_push_final, mirrored.
            if sim.final_pushed or not has_final:
                return
            if not inst.loop_finished:
                return
            trips = inst.loop_trips or 0
            if conditional:
                if sim.emitted < trips:
                    return
                push_final(emit_history[trips - 1])
            else:
                if trips == 0:
                    if sim.inited:
                        push_final(sim.init_val)
                elif sim.backs >= trips:
                    push_final(sim.last_back)
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


def _bind_loopctl(sim, inst, data):
    node = sim.node
    conditional = node.conditional
    start_chans = sim.start_chans
    stoks, spops = _tokens_pops(start_chans) \
        if start_chans is not None else (None, None)
    cont_ch = sim.cont_chan
    cont_tok = ready_token(cont_ch) if cont_ch is not None else None
    cont_pop = cont_ch.pop if cont_ch is not None else None
    index_fork = sim._forks.get(node.index.name)
    active_fork = sim._forks.get(node.active.name)
    done_fork = sim._forks.get(node.done.name)
    final_fork = sim._forks.get(node.final.name)
    done_wired = bool(node.done.outgoing)
    final_wired = bool(node.final.outgoing)
    forks = sim._fork_list
    max_in_flight = node.max_in_flight
    ps = max(1, node.pipeline_stages)
    idx, bit = _rearm_locals(sim)
    sched = inst.schedule_node
    completed = inst.completed_iterations
    iters = inst.stats.iterations
    tname = inst.task.name
    count_trips = LoopControlSim._count_trips
    on_loop_finished = inst.on_loop_finished
    index_acc = _fork_accept(index_fork) \
        if index_fork is not None else None
    active_acc = _fork_accept(active_fork) \
        if active_fork is not None else None
    done_acc = _fork_accept(done_fork) \
        if done_fork is not None else None
    final_acc = _fork_accept(final_fork) \
        if final_fork is not None else None

    def out_can(fork):
        return fork is None or not fork.pending

    def out_push(acc, value):
        if acc is not None:
            acc(value, inst)
        inst._act += 1

    def finish(now):
        if sim.finished:
            return
        sim.finished = True
        inst.loop_trips = sim.issued if conditional else sim.trips
        inst.loop_finished = True
        inst._act += 1
        on_loop_finished()

    def finish_outputs(now):
        if not sim.finished:
            return
        if not sim.done_pushed and done_wired and out_can(done_fork):
            out_push(done_acc, True)
            sim.done_pushed = True
        if not sim.final_pushed and final_wired and out_can(final_fork):
            out_push(final_acc, sim.start_v + sim.issued * sim.step_v)
            sim.final_pushed = True

    def tick_counted(now):
        if sim.issued >= sim.trips:
            finish(now)
            return
        if now < sim.next_issue:
            return
        if sim.issued - completed() >= max_in_flight:
            inst._window_wait |= bit
            return
        if not (out_can(index_fork) and out_can(active_fork)):
            return
        out_push(index_acc, sim.start_v + sim.issued * sim.step_v)
        out_push(active_acc, True)
        sim.issued += 1
        sim.next_issue = now + ps
        sched(idx, sim.next_issue)
        iters[tname] += 1

    def tick_conditional(now):
        if sim.issued == 0:
            if now >= sim.next_issue and out_can(index_fork) \
                    and out_can(active_fork):
                out_push(index_acc, sim.start_v)
                out_push(active_acc, True)
                sim.issued = 1
                sim.next_issue = now + ps
                sched(idx, sim.next_issue)
                iters[tname] += 1
            return
        if cont_ch is None or not cont_tok:
            return
        if now < sim.next_issue:
            return
        if sim.issued - completed() >= max_in_flight:
            inst._window_wait |= bit
            return
        if not (out_can(index_fork) and out_can(active_fork)):
            return
        cont = cont_pop()
        inst._act += 1
        if not cont:
            sim.trips = sim.issued
            finish(now)
            return
        out_push(index_acc, sim.start_v + sim.issued * sim.step_v)
        out_push(active_acc, True)
        sim.issued += 1
        sim.next_issue = now + ps
        sched(idx, sim.next_issue)
        iters[tname] += 1

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            for f in forks:
                if f.pending:
                    f.drain(inst)
            if not sim.started:
                if start_chans is None:
                    return
                for tok in stoks:
                    if not tok:
                        return
                # Loop bounds are control: demand lane uniformity
                # (no-op on scalars, once per invocation).
                sim.start_v = ctrl(spops[0]())
                bound_v = ctrl(spops[1]())
                sim.step_v = ctrl(spops[2]())
                sim.started = True
                inst._act += 1
                if not conditional:
                    sim.trips = count_trips(sim.start_v, bound_v,
                                            sim.step_v)
                    inst.loop_trips = sim.trips
            if sim.finished:
                finish_outputs(now)
                return
            if conditional:
                tick_conditional(now)
            else:
                tick_counted(now)
            finish_outputs(now)
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


def _bind_load(sim, inst, data):
    node = sim.node
    chans = sim.req_chans
    if chans is None:
        return _nop
    records = sim.records
    rec_popleft = records.popleft
    rec_append = records.append
    out_fork = sim._forks.get(node.out.name)
    done_fork = sim._forks.get(node.done.name)
    words = sim.words
    max_outstanding = node.max_outstanding
    has_pred = sim.has_pred
    has_order = sim.has_order
    poison = poison_value(node.out.type)
    submit = sim.junction_sim.submit
    wake = inst.wake_node
    idx, bit = _rearm_locals(sim)
    stats = inst.stats
    on_sink = inst.on_sink_progress
    # Request operands, flattened: addr, [pred], [order].
    qa = ready_token(chans[0])
    pa = chans[0].pop
    qp = pp = qo = po = None
    pos = 1
    if has_pred:
        qp = ready_token(chans[1])
        pp = chans[1].pop
        pos = 2
    if has_order:
        qo = ready_token(chans[pos])
        po = chans[pos].pop
    out_accept = _fork_accept(out_fork) if out_fork is not None else None
    done_accept = _fork_accept(done_fork) \
        if done_fork is not None else None

    def step(now):
        inst._cursor = idx
        if out_fork is not None and out_fork.pending:
            out_fork.drain(inst)
        if done_fork is not None and done_fork.pending:
            done_fork.drain(inst)
        while records and records[0].remaining == 0:
            if (out_fork is not None and out_fork.pending) or \
                    (done_fork is not None and done_fork.pending):
                break
            rec = rec_popleft()
            if rec.poison:
                value = poison
            elif words == 1:
                value = rec.words[0]
            else:
                value = lane_pack_words(rec.words)
            if out_fork is not None:
                out_accept(value, inst)
            inst._act += 1
            if done_fork is not None:
                done_accept(True, inst)
            inst._act += 1
            sim.sink_count += 1
            on_sink()
        if len(records) >= max_outstanding:
            return
        if not qa or (has_pred and not qp) or \
                (has_order and not qo):
            return
        addr = pa()
        enabled = bool(pp()) if has_pred else True
        if has_order:
            po()
        inst._act += 1
        if not enabled:
            rec_append(_MemRecord(0, poison=True))
            wake(idx)
            return
        rec = _MemRecord(words)
        rec_append(rec)
        stats.memory_reads += words
        base = int(addr)
        for w in range(words):
            def on_done(req, r=rec, i=w):
                r.words[i] = req.value
                r.remaining -= 1
                if r.remaining == 0:
                    wake(idx)
            submit(MemRequest(base + w, False, on_done=on_done))
        # Fire again next cycle only on tokens already here: others
        # arrive with a commit wake, a record slot frees with a retire,
        # and a retire waits on a completion or a pop wake.
        if qa and (not has_pred or qp) and (not has_order or qo) \
                and len(records) < max_outstanding:
            inst._next |= bit

    return step


def _bind_store(sim, inst, data):
    node = sim.node
    chans = sim.req_chans
    if chans is None:
        return _nop
    records = sim.records
    rec_popleft = records.popleft
    rec_append = records.append
    done_fork = sim._forks.get(node.done.name)
    words = sim.words
    max_outstanding = node.max_outstanding
    has_pred = sim.has_pred
    has_order = sim.has_order
    submit = sim.junction_sim.submit
    wake = inst.wake_node
    idx, bit = _rearm_locals(sim)
    stats = inst.stats
    on_sink = inst.on_sink_progress
    # Request operands, flattened: addr, data, [pred], [order].
    qa = ready_token(chans[0])
    pa = chans[0].pop
    qd = ready_token(chans[1])
    pd = chans[1].pop
    qp = pp = qo = po = None
    pos = 2
    if has_pred:
        qp = ready_token(chans[2])
        pp = chans[2].pop
        pos = 3
    if has_order:
        qo = ready_token(chans[pos])
        po = chans[pos].pop
    done_accept = _fork_accept(done_fork) \
        if done_fork is not None else None

    def step(now):
        inst._cursor = idx
        if done_fork is not None and done_fork.pending:
            done_fork.drain(inst)
        while records and records[0].remaining == 0:
            if done_fork is not None and done_fork.pending:
                break
            rec_popleft()
            if done_fork is not None:
                done_accept(True, inst)
            inst._act += 1
            sim.sink_count += 1
            on_sink()
        if len(records) >= max_outstanding:
            return
        if not qa or not qd or (has_pred and not qp) or \
                (has_order and not qo):
            return
        addr = pa()
        data_v = pd()
        enabled = bool(pp()) if has_pred else True
        if has_order:
            po()
        inst._act += 1
        if not enabled:
            rec_append(_MemRecord(0, poison=True))
            wake(idx)
            return
        rec = _MemRecord(words)
        rec_append(rec)
        stats.memory_writes += words
        base = int(addr)
        values = (lane_unpack_words(data_v, words)
                  if words > 1 else [data_v])
        for w in range(words):
            def on_done(req, r=rec):
                r.remaining -= 1
                if r.remaining == 0:
                    wake(idx)
            submit(MemRequest(base + w, True, value=values[w],
                              on_done=on_done))
        # As for loads: fire again next cycle only on tokens already
        # here.
        if qa and qd and (not has_pred or qp) and \
                (not has_order or qo) and len(records) < max_outstanding:
            inst._next |= bit

    return step


def _bind_call(sim, inst, data):
    node = sim.node
    chans = sim.req_chans
    if chans is None:
        return _nop
    tokens, pops = _tokens_pops(chans)
    peeks = tuple(ch.peek for ch in chans)
    records = sim.records
    n_args = sim.n_args
    has_pred = sim.has_pred
    ret_forks = [sim._forks.get(p.name) for p in node.ret_ports]
    ret_poisons = [poison_value(p.type) for p in node.ret_ports]
    n_rets = len(ret_forks)
    order_fork = sim._forks.get(node.order_out.name)
    forks = sim._fork_list
    max_outstanding = 1 if node.serialize else node.max_outstanding
    try_enqueue = inst.runtime.try_enqueue
    tname = inst.task.name
    callee = node.callee
    note_blocked = inst.note_enqueue_blocked
    note_ok = inst.note_enqueue_ok
    wake = inst.wake_node
    idx, bit = _rearm_locals(sim)
    on_sink = inst.on_sink_progress

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            for f in forks:
                if f.pending:
                    f.drain(inst)
            while records and records[0].done:
                ret_ok = True
                for f in ret_forks:
                    if f is not None and f.pending:
                        ret_ok = False
                        break
                if not ret_ok or \
                        (order_fork is not None and order_fork.pending):
                    break
                rec = records.popleft()
                results = rec.results
                poisoned = rec.poison
                for i in range(n_rets):
                    if poisoned or i >= len(results):
                        value = ret_poisons[i]
                    else:
                        value = results[i]
                    f = ret_forks[i]
                    if f is not None:
                        f.accept(value, inst)
                    inst._act += 1
                if order_fork is not None:
                    order_fork.accept(True, inst)
                inst._act += 1
                sim.sink_count += 1
                on_sink()
                inst.calls_outstanding -= 1
            if len(records) >= max_outstanding:
                return
            for tok in tokens:
                if not tok:
                    return
            enabled = True
            if has_pred:
                enabled = bool(peeks[n_args]())
            if enabled:
                rec = _CallRecord()
                args = [peeks[i]() for i in range(n_args)]
                if not try_enqueue(tname, callee, args, reply=rec,
                                   parent=inst):
                    note_blocked(sim)
                    return
            else:
                rec = _CallRecord(poison=True)
                wake(idx)
            for pop in pops:
                pop()
            records.append(rec)
            note_ok(sim)
            inst.calls_outstanding += 1
            inst._act += 1
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


def _bind_spawn(sim, inst, data):
    node = sim.node
    chans = sim.req_chans
    if chans is None:
        return _nop
    tokens, pops = _tokens_pops(chans)
    peeks = tuple(ch.peek for ch in chans)
    n_args = sim.n_args
    has_pred = sim.has_pred
    issued_fork = sim._forks.get(node.issued.name)
    forks = sim._fork_list
    try_enqueue = inst.runtime.try_enqueue
    tname = inst.task.name
    callee = node.callee
    note_blocked = inst.note_enqueue_blocked
    note_ok = inst.note_enqueue_ok
    on_sink = inst.on_sink_progress
    idx, bit = _rearm_locals(sim)

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            for f in forks:
                if f.pending:
                    f.drain(inst)
            if issued_fork is not None and issued_fork.pending:
                return
            for tok in tokens:
                if not tok:
                    return
            enabled = True
            if has_pred:
                enabled = bool(peeks[n_args]())
            if enabled:
                args = [peeks[i]() for i in range(n_args)]
                if not try_enqueue(tname, callee, args, reply=None,
                                   parent=inst):
                    note_blocked(sim)
                    return
                inst.pending_children += 1
            for pop in pops:
                pop()
            if issued_fork is not None:
                issued_fork.accept(True, inst)
            inst._act += 1
            sim.sink_count += 1
            on_sink()
            note_ok(sim)
            inst._act += 1
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


def _bind_sync(sim, inst, data):
    node = sim.node
    has_order = node.order_in is not None
    if has_order and node.order_in.incoming is None:
        return _nop
    if has_order:
        order_ch = inst.channels[id(node.order_in.incoming)]
        order_tok = ready_token(order_ch)
        order_pop = order_ch.pop
    done_fork = sim._forks.get(node.done.name)
    forks = sim._fork_list
    on_sink = inst.on_sink_progress
    idx, bit = _rearm_locals(sim)

    def step(now):
        inst._cursor = idx
        a0 = inst._act
        try:
            for f in forks:
                if f.pending:
                    f.drain(inst)
            if sim.fired:
                return
            if has_order and not order_tok:
                return
            if inst.pending_children > 0:
                return
            if done_fork is not None and done_fork.pending:
                return
            if has_order:
                order_pop()
            if done_fork is not None:
                done_fork.accept(True, inst)
            inst._act += 1
            sim.fired = True
            sim.sink_count = 1
            on_sink()
        finally:
            if inst._act != a0:
                inst._next |= bit

    return step


# ---------------------------------------------------------------------------
# Compile phase: per-node binder selection + content-derived data.
# ---------------------------------------------------------------------------

def _compile_compute(node):
    """(arity, positional evaluator, list evaluator) for one FU."""
    scale = node.gep_scale if node.op == "gep" else 1
    arity, fpos = specialize_compute_pos(node.op, node.out.type, scale)
    return (arity, fpos,
            specialize_compute(node.op, node.out.type, scale))


def _compile_fused(node):
    """Fused-region evaluator: one pre-specialized closure per inner
    expression, each gathering its operands by direct index for the
    two-operand shapes the fusion pass emits (a chain: two inputs, or
    an input and the previous result).  Any other expression goes
    through its op's list evaluator."""
    exprs = []
    for op, refs, rtype, scale in node.exprs:
        arity, f = specialize_compute_pos(op, rtype, scale)
        from_in = tuple(k == "in" for k, _ in refs)
        if arity == 2 and from_in == (True, True):
            (_, ia), (_, ib) = refs
            exprs.append(lambda ins, res, f=f, ia=ia, ib=ib:
                         f(ins[ia], ins[ib]))
        elif arity == 2 and from_in == (True, False):
            (_, ia), (_, ib) = refs
            exprs.append(lambda ins, res, f=f, ia=ia, ib=ib:
                         f(ins[ia], res[ib]))
        elif arity == 2 and from_in == (False, True):
            (_, ia), (_, ib) = refs
            exprs.append(lambda ins, res, f=f, ia=ia, ib=ib:
                         f(res[ia], ins[ib]))
        else:
            flist = specialize_compute(op, rtype, scale)
            refs = tuple(refs)
            exprs.append(lambda ins, res, f=flist, refs=refs:
                         f([ins[i] if k == "in" else res[i]
                            for k, i in refs]))
    exprs = tuple(exprs)

    def evalf(ins):
        results: List = []
        rappend = results.append
        for e in exprs:
            rappend(e(ins, results))
        return results[-1]

    return evalf


#: kind -> (binder, compile-time data factory or None).
_STEP_COMPILERS: Dict[str, Tuple[Callable, Optional[Callable]]] = {
    "const": (_bind_source, None),
    "livein": (_bind_source, None),
    "liveout": (_bind_liveout, None),
    "compute": (_bind_compute, _compile_compute),
    "tensor": (_bind_compute, _compile_compute),
    "fused": (_bind_fused, _compile_fused),
    "select": (_bind_select, None),
    "phi": (_bind_phi, None),
    "loopctl": (_bind_loopctl, None),
    "load": (_bind_load, None),
    "store": (_bind_store, None),
    "call": (_bind_call, None),
    "spawn": (_bind_spawn, None),
    "sync": (_bind_sync, None),
}


class CompiledTask:
    """Compile-time plan for one task block: a binder + data per node
    position, shared by every instance of the task."""

    __slots__ = ("plan",)

    def __init__(self, task):
        plan = []
        for node in task.dataflow.nodes:
            binder, data_factory = _STEP_COMPILERS[node.kind]
            data = data_factory(node) if data_factory is not None \
                else None
            plan.append((binder, data))
        self.plan = plan

    def bind(self, instance) -> List[Callable]:
        """One step closure per node of ``instance``, bound when it is
        built; a recycled instance keeps them."""
        sims = instance.node_sims
        steps = []
        append = steps.append
        for i, (binder, data) in enumerate(self.plan):
            append(binder(sims[i], instance, data))
        return steps


def compile_circuit(circuit) -> Dict[str, CompiledTask]:
    """The plan of every task of ``circuit``, by task name."""
    return {name: CompiledTask(task)
            for name, task in circuit.tasks.items()}
