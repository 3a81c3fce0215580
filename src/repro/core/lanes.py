"""Lane-indexed values: the batched simulation's data layer.

One batched run steps ``N`` independent workload instances ("lanes")
through a *single* runtime: one scheduler, one set of channels, one
set of FU timers, one invocation queue.  The latency-insensitive
execution model guarantees independent invocations of the same
circuit cannot interact, so all *control* state — channel occupancy,
loop trip counts, memory request addresses, predicates, task
enqueues — is provably identical across lanes as long as every value
a control decision reads is lane-uniform.  Only the *payload* values
carry a lane dimension, as a :class:`LaneValues` wrapper holding one
value per lane (a structure-of-arrays layout: the scalar state the
sequential kernels keep per instance becomes a lane-indexed vector,
while the collapsed occupancy/timer dimension is shared).

The uniformity requirement is *enforced*, not assumed:
``LaneValues.__bool__`` / ``__int__`` / ``__index__`` return the
uniform scalar or raise :class:`repro.errors.LaneDivergence`, so the
existing control sites (``int(addr)``, ``bool(pred)``,
``if not cont:``) work unmodified and become the uniformity checks.
A divergence aborts the batched attempt — which ran against *copies*
of the lane memories — and the driver re-runs each lane sequentially
against the untouched originals (bit-identical by construction, just
without the speedup).

Equivalence argument (DESIGN.md §9): every control decision in a
batched run is made on a value checked to be identical to the value
each lane's independent run would see; payload computation applies
the identical scalar evaluator per lane; therefore the cycle-by-cycle
schedule and every lane's results and memory image match N
independent runs exactly.

Lane math is one list-of-lanes loop.  An optional array-library
backend was measured and removed (DESIGN.md §9): it was no faster at
batch 16 or 64, and importing it grew each process by 10-14 MB.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from ..errors import LaneDivergence

__all__ = [
    "BatchContext", "LaneImage", "LaneValues", "ctrl",
    "lane_fingerprint", "lane_lift_list", "lane_lift_pos",
    "lane_pack_words", "lane_row", "lane_select", "lane_unpack_words",
]


class BatchContext:
    """Per-run batch descriptor threaded through the runtime.

    Binders read ``instance.runtime.batch`` once, at bind time, to
    select lane-aware evaluators — the scalar (batch=None) closures
    stay byte-identical to the unbatched kernel.
    """

    __slots__ = ("lanes",)

    def __init__(self, lanes: int):
        self.lanes = int(lanes)

    def __repr__(self) -> str:
        return f"BatchContext(lanes={self.lanes})"


def _same(a, b) -> bool:
    """Strict per-lane value identity.

    Stricter than ``==`` on purpose: the memory digest the equivalence
    gate compares is ``repr``-based, so ``0.0`` vs ``-0.0`` (equal,
    different repr) and ``True`` vs ``1`` (equal, different type) must
    count as divergent — collapsing them would change what a lane
    writes back relative to its independent run.
    """
    if a is b:
        return True
    if a.__class__ is not b.__class__:
        return False
    if a != b:
        return False
    if a.__class__ is float and a == 0.0:
        return repr(a) == repr(b)       # 0.0 vs -0.0
    if a.__class__ is tuple:
        return repr(a) == repr(b)       # multi-word payloads
    return True


class LaneValues:
    """One payload value per lane.

    Flows through channels, forks, phi/select nodes and memory
    requests exactly like a scalar.  Any attempt to use it where a
    *scalar control value* is required (truth test, index, int
    coercion) returns the lane-uniform scalar or raises
    :class:`LaneDivergence` — which is precisely the soundness check
    the batched kernel relies on.
    """

    __slots__ = ("lanes",)

    def __init__(self, lanes: List):
        self.lanes = lanes

    def uniform(self):
        lanes = self.lanes
        v0 = lanes[0]
        for v in lanes:
            if not _same(v0, v):
                raise LaneDivergence(
                    f"lane-divergent value reached a control decision "
                    f"(lane 0: {v0!r}, divergent: {v!r})")
        return v0

    def __bool__(self) -> bool:
        return bool(self.uniform())

    def __int__(self) -> int:
        return int(self.uniform())

    def __index__(self) -> int:
        return int(self.uniform())

    def __float__(self) -> float:
        return float(self.uniform())

    def __repr__(self) -> str:
        return f"LaneValues({self.lanes!r})"


def ctrl(value):
    """Force a value to a lane-uniform scalar at a control junction."""
    if type(value) is LaneValues:
        return value.uniform()
    return value


def lane_select(cond, a, b):
    """``a if cond else b`` with lane-wise condition support.

    A divergent select condition is *data*, not control — each lane
    picks its own arm, exactly as its independent run would.
    """
    if type(cond) is LaneValues:
        conds = cond.lanes
        n = len(conds)
        la = a.lanes if type(a) is LaneValues else [a] * n
        lb = b.lanes if type(b) is LaneValues else [b] * n
        return LaneValues([x if c else y
                           for c, x, y in zip(conds, la, lb)])
    return a if cond else b


def lane_row(values: Sequence, lane: int) -> List:
    """Project one lane out of a mixed scalar/LaneValues sequence."""
    return [v.lanes[lane] if type(v) is LaneValues else v
            for v in values]


def lane_pack_words(words: Sequence):
    """Assemble a (possibly lane-indexed) multi-word load payload.

    Mirrors the scalar kernels' ``tuple(rec.words)``: uniform words
    stay a plain tuple; any lane-indexed word lifts the whole payload
    to a LaneValues of per-lane tuples.
    """
    n = 0
    for w in words:
        if type(w) is LaneValues:
            n = len(w.lanes)
            break
    else:
        return tuple(words)
    return LaneValues([
        tuple(w.lanes[i] if type(w) is LaneValues else w for w in words)
        for i in range(n)])


def lane_unpack_words(data, words: int):
    """Split a multi-word store payload into per-word values.

    Inverse of :func:`lane_pack_words`: a LaneValues of per-lane
    tuples becomes one LaneValues per word position.
    """
    if type(data) is LaneValues:
        lanes = data.lanes
        return [LaneValues([lane[w] for lane in lanes])
                for w in range(words)]
    return data


class LaneImage:
    """N per-lane memory images behind a single ``image[addr]`` API.

    The memory system's timing machinery (banks, caches, write
    buffers, junction arbitration) keys on *addresses*, which are
    control values and therefore lane-uniform; only the stored words
    differ per lane.  So the whole of :mod:`repro.sim.memory` runs
    unchanged against this object: reads gather across lanes
    (collapsing to a plain scalar when all lanes agree, so uniform
    data never pays the lane dimension), writes scatter a LaneValues
    or broadcast a scalar.
    """

    __slots__ = ("lanes",)

    def __init__(self, lane_words: List[List]):
        if not lane_words:
            raise ValueError("LaneImage needs at least one lane")
        self.lanes = lane_words

    def __len__(self) -> int:
        return len(self.lanes[0])

    def __getitem__(self, addr):
        lanes = self.lanes
        v0 = lanes[0][addr]
        for row in lanes:
            if not _same(v0, row[addr]):
                return LaneValues([row[addr] for row in lanes])
        return v0

    def __setitem__(self, addr, value) -> None:
        if type(value) is LaneValues:
            for row, v in zip(self.lanes, value.lanes):
                row[addr] = v
        else:
            for row in self.lanes:
                row[addr] = value


def lane_fingerprint(args: Sequence, words: Sequence) -> str:
    """Content identity of one lane's *input* (root args + initial
    memory image); stamped into per-lane error documents so a failed
    lane is reproducible outside the batch."""
    h = hashlib.sha256()
    h.update(repr([repr(a) for a in args]).encode())
    h.update(b"|")
    for w in words:
        h.update(repr(w).encode())
        h.update(b",")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Lane-lifted evaluators (compiled kernel).
# ---------------------------------------------------------------------------


def lane_lift_pos(f):
    """Lane-lifted twin of a two-operand positional evaluator from
    :func:`repro.core.semantics.specialize_compute_pos` (the compiled
    kernel steps every other arity through :func:`lane_lift_list`).

    Scalar operands take the original fast path untouched; any
    LaneValues operand broadcasts the scalar and maps ``f`` per lane.
    """
    def lifted(a, b):
        av = type(a) is LaneValues
        bv = type(b) is LaneValues
        if not av and not bv:
            return f(a, b)
        if av and bv:
            la, lb = a.lanes, b.lanes
        elif av:
            la = a.lanes
            lb = [b] * len(la)
        else:
            lb = b.lanes
            la = [a] * len(lb)
        return LaneValues([f(x, y) for x, y in zip(la, lb)])
    return lifted


def lane_lift_list(f):
    """Lane-lifted twin of a list-form evaluator (``f(vals) -> r``);
    also lifts the fused-region evaluators, which share the shape."""
    def lifted(vals):
        n = 0
        for v in vals:
            if type(v) is LaneValues:
                n = len(v.lanes)
                break
        else:
            return f(vals)
        return LaneValues([f(lane_row(vals, i)) for i in range(n)])
    return lifted
