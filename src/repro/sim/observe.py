"""Unified observability layer: stall attribution + event tracing.

Every stall in the simulator gets an *attributed cause* from the
taxonomy below, accumulated per node (and per memory site) in
:class:`repro.sim.stats.SimStats`.  The compiled kernel makes this
nearly free: a stall is exactly a sleep episode, so attribution
happens once per episode (classify on falling asleep, charge the
slept cycles on wakeup) instead of once per idle cycle.

An episode builds no strings.  At the start of a run each attribution
site (every load, store, call and spawn node, plus the task itself)
gets one integer *key* per cause, naming its ``task.node`` label, the
cause and its provenance label (:meth:`Observability.keys_for`).
Classifying returns keys, and charging adds cycles into one flat
per-run table in first-charge order.  :meth:`Observability.fold` adds
that table into ``stall_cycles``, ``node_stalls`` and
``source_stalls`` at the end of the run (or when a failed run ships
its stats), so the documents and their key order are those of
charging each episode into them directly.

An optional bounded ring buffer records stall episodes and task
lifecycle events; it exports either plain JSON or the Chrome
``chrome://tracing`` / Perfetto ``traceEvents`` format so stalls can
be inspected on a real timeline viewer.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.provenance import provenance_label
from .channel import ready_token

# -- stall taxonomy ---------------------------------------------------------
#: No token available on at least one required input edge.
UPSTREAM_EMPTY = "upstream_empty"
#: All inputs present but an output edge (fork branch) has no space.
DOWNSTREAM_FULL = "downstream_full"
#: Request serialized behind others on the same SRAM bank port.
BANK_CONFLICT = "bank_conflict"
#: Request waiting for the junction arbiter's issue slots.
JUNCTION_ARB = "junction_arb"
#: Load/store waiting on an outstanding memory transaction.
DRAM_INFLIGHT = "dram_inflight"
#: call/spawn blocked because the callee's task queue is at depth.
TASK_QUEUE_FULL = "task_queue_full"
#: Parent waiting for a child task invocation to complete.
CHILD_WAIT = "child_wait"
#: Loop controller at its in-flight iteration window.
ITER_WINDOW = "iter_window"
#: Instance idle with no attributable blocked node (pure latency).
IDLE = "idle"

STALL_CAUSES = (
    UPSTREAM_EMPTY, DOWNSTREAM_FULL, BANK_CONFLICT, JUNCTION_ARB,
    DRAM_INFLIGHT, TASK_QUEUE_FULL, CHILD_WAIT, ITER_WINDOW, IDLE,
)


#: Classification codes by node kind.  The attribution sites of a
#: sleep episode are the load/store (``_MEM``), call and spawn nodes.
_MEM, _CALL, _SPAWN, _LOOPCTL, _SYNC, _OTHER = range(6)
_CODES = {"load": _MEM, "store": _MEM, "call": _CALL, "spawn": _SPAWN,
          "loopctl": _LOOPCTL, "sync": _SYNC}
#: Keys that name each cause by itself (classify_node's view).
_BY_NAME = {cause: cause for cause in STALL_CAUSES}


def classify_node(sim) -> Optional[str]:
    """Name why one node simulator cannot act right now, or None.

    Used for deadlock diagnostics (sleep episodes classify their
    sites through the same :func:`_classify`); inspects only the sim's
    own state so it is safe at any point of the cycle.
    """
    node = sim.node
    out: List[str] = []
    _classify(((sim, _CODES.get(node.kind, _OTHER),
                _tokens(sim.instance.channels, _input_ids(node)),
                _BY_NAME),), out)
    return out[0] if out else None


def _classify(sites, out: List) -> None:
    """Append ``keys[cause]`` for each site ``(sim, code, tokens,
    keys)`` whose node cannot act, naming why.  ``tokens`` holds the
    ready tokens of the node's inputs (None: unwired port)."""
    for sim, code, tokens, keys in sites:
        if code == _MEM:
            records = sim.records
            if records:
                # In flight, or the retired value has nowhere to go.
                out.append(keys[DRAM_INFLIGHT if records[0].remaining > 0
                                else DOWNSTREAM_FULL])
                continue
        elif code == _CALL or code == _SPAWN:
            if sim._eq_blocked:
                out.append(keys[TASK_QUEUE_FULL])
                continue
            if code == _CALL and sim.records and \
                    not sim.records[0].done:
                out.append(keys[CHILD_WAIT])
                continue
        elif code == _LOOPCTL:
            if sim.started and not sim.finished and \
                    sim._in_flight() >= sim.node.max_in_flight:
                out.append(keys[ITER_WINDOW])
                continue
        elif code == _SYNC:
            if sim.instance.pending_children > 0:
                out.append(keys[CHILD_WAIT])
                continue
        # Edge level: starved vs backpressured.
        unwired = False
        for token in tokens:
            if token is None:
                unwired = True
            elif not token:
                out.append(keys[UPSTREAM_EMPTY])
                break
        else:
            for fork in sim._fork_list:
                if fork.pending:
                    out.append(keys[DOWNSTREAM_FULL])
                    break
            else:
                if unwired:
                    # An existing-but-unwired input can never produce a
                    # token: the node is starved forever (classic
                    # miswiring deadlock).
                    out.append(keys[UPSTREAM_EMPTY])


def _input_ids(node) -> Tuple[Optional[int], ...]:
    return tuple(None if port.incoming is None else id(port.incoming)
                 for port in node.inputs)


def _tokens(channels, conns) -> tuple:
    return tuple(None if cid is None else ready_token(channels[cid])
                 for cid in conns)


def _node_loc(node) -> str:
    """Provenance label of a node, or "" if it carries none."""
    return provenance_label(getattr(node, "provenance", ()))


class Observability:
    """Per-run stall accounting and (optional) event trace.

    ``level``:
      * ``"off"``      — no attribution at all (raw speed runs)
      * ``"counters"`` — per-node stall cause counters (the default;
        one classification scan per sleep episode)
      * ``"trace"``    — counters plus a bounded ring buffer of stall
        and task-lifecycle events for timeline export
    """

    def __init__(self, stats, level: str = "counters",
                 trace_capacity: int = 65536):
        if level not in ("off", "counters", "trace"):
            raise ValueError(f"bad observability level {level!r}")
        self.stats = stats
        self.level = level
        self.enabled = level != "off"
        self.tracing = level == "trace"
        self.ring: deque = deque(maxlen=max(1, trace_capacity))
        self.dropped = 0
        #: ``(label, cause, loc)`` of every attribution key of the run,
        #: the cycles charged to each key, and the charged keys in
        #: first-charge order (see fold).
        self._labels: List[Tuple[str, str, str]] = []
        self._cycles: List[int] = []
        self._order: List[int] = []

    # -- stall episodes ---------------------------------------------------
    def keys_for(self, label: str, loc: str = "") -> Dict[str, int]:
        """One attribution key per stall cause for the site ``label``
        (``task.node``, or a task name for instance-level causes) whose
        provenance label is ``loc`` (``""`` for none)."""
        keys = {}
        for cause in STALL_CAUSES:
            keys[cause] = len(self._labels)
            self._labels.append((label, cause, loc))
        self._cycles.extend([0] * len(STALL_CAUSES))
        return keys

    def site(self, task_name: str, idx: int, node) -> tuple:
        """Attribution site of load, store, call or spawn node ``idx``
        of a task: ``(idx, kind code, input channel ids, keys)``."""
        return (idx, _CODES[node.kind], _input_ids(node),
                self.keys_for(f"{task_name}.{node.name}", _node_loc(node)))

    def classify_instance(self, inst) -> List[int]:
        """Keys of the stall causes of an instance falling asleep: one
        per blocked load, store, call or spawn node, else the task's
        own ``child_wait`` or ``idle`` key."""
        sites = inst.attr_sites
        if sites is None:
            # Bound once per instance: a recycled instance keeps its
            # node sims and clears its channels in place.
            sims = inst.node_sims
            channels = inst.channels
            sites = inst.attr_sites = [
                (sims[idx], code, _tokens(channels, conns), keys)
                for idx, code, conns, keys in inst.static.sites]
        out: List[int] = []
        _classify(sites, out)
        if not out:
            out.append(inst.static.task_keys[
                CHILD_WAIT if inst.pending_children > 0 else IDLE])
        return out

    def charge(self, keys, cycles: int, start: int) -> None:
        """Charge a finished sleep episode to its recorded causes."""
        if cycles <= 0:
            return
        table = self._cycles
        for key in keys:
            held = table[key]
            if not held:
                self._order.append(key)
            table[key] = held + cycles
        if self.tracing:
            for key in keys:
                label, cause, loc = self._labels[key]
                args = {"cause": cause}
                if loc:
                    args["loc"] = loc
                self.emit("stall", label, start, dur=cycles, args=args)

    def charge_park(self, inst, cycles: int, start: int) -> None:
        """A parked instance was waiting on children or queue space."""
        cause = TASK_QUEUE_FULL if inst.enqueue_blocked else CHILD_WAIT
        self.charge((inst.static.task_keys[cause],), cycles, start)

    def fold(self) -> None:
        """Add the charged cycles into the run's stats, in first-charge
        order, and empty the table (so folding twice adds nothing)."""
        stats = self.stats
        table = self._cycles
        for key in self._order:
            label, cause, loc = self._labels[key]
            cycles = table[key]
            table[key] = 0
            stats.stall_cycles[cause] += cycles
            stats.node_stalls[label][cause] += cycles
            if loc:
                stats.source_stalls[loc][cause] += cycles
        self._order.clear()

    # -- ring-buffer trace ------------------------------------------------
    def emit(self, cat: str, name: str, cycle: int, dur: int = 0,
             args: Optional[Dict] = None) -> None:
        if not self.tracing:
            return
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append((cycle, dur, cat, name, args))

    # -- exports ----------------------------------------------------------
    def events(self) -> List[Dict]:
        return [{"cycle": c, "dur": d, "cat": cat, "name": name,
                 "args": args or {}}
                for c, d, cat, name, args in self.ring]

    def chrome_trace(self) -> Dict:
        """Chrome/Perfetto ``traceEvents`` JSON (1 cycle = 1 us).

        Episodes are appended to the ring at *wakeup* time, so raw
        order is not sorted by start cycle; viewers (and our tests)
        expect monotonic ``ts``, so we sort on export.
        """
        events = []
        for cycle, dur, cat, name, args in sorted(
                self.ring, key=lambda rec: (rec[0], rec[3])):
            pid = name.split(".", 1)[0]
            ev = {"name": (args or {}).get("cause", name), "cat": cat,
                  "pid": pid, "tid": name, "ts": cycle,
                  "args": args or {}}
            if dur > 0:
                ev["ph"] = "X"
                ev["dur"] = dur
            else:
                ev["ph"] = "i"
                ev["s"] = "t"
            events.append(ev)
        return {"traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_events": self.dropped,
                              "unit": "1 ts = 1 cycle"}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
