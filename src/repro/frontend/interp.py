"""Reference interpreter for the software IR.

This is the golden functional model: workloads run here to produce
expected memory images, and every uIR simulation is checked against it
(the paper's central claim is that microarchitecture transformations
never change behavior).  ``Pipeline._verify`` re-runs each checked
evaluation here on the run's own input image and arguments.  The HLS
and ARM baseline cycle models read its block trace through
``block_hook`` (one call per block visit, in execution order).

Each function an :class:`Interpreter` runs is decoded once, at its
first call, into per-block records: the block's phi moves keyed by
predecessor, its straight-line instructions as closures (operands,
opcode semantics, wrap functions, ``gep`` strides and global base
addresses resolved at decode time) and its terminator.  Every
activation frame starts as a copy of the function's constants and
global bases, so each operand is one dict lookup.  Decoding never
raises: a malformed op fails only when it executes.  Nothing is kept
across interpreters, because the IR is mutable.  The step limit is
checked once per block.

The reference stays independent of the simulator it checks: it shares
no op evaluators with it (nothing from ``repro.sim``,
``repro.core.semantics`` or ``repro.core.lanes``).

Parallel constructs execute with serial semantics (Cilk's serial
elision): ``detach`` runs the detached region inline, ``spawn`` calls
run synchronously, and ``sync`` is a no-op.  This is deterministic and
functionally equivalent to any legal parallel schedule for the
race-free programs we model.
"""

from __future__ import annotations

import math
import operator
import weakref
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..errors import InterpreterError
from ..types import BoolType, IntType, PointerType, TensorType
from .ir import (
    MEMORY_OPS,
    BasicBlock,
    Branch,
    Call,
    CondBranch,
    Constant,
    Detach,
    Function,
    GlobalArray,
    Instruction,
    Module,
    Phi,
    Reattach,
    Return,
    Sync,
    Value,
)

MAX_STEPS = 50_000_000

#: Terminator kinds of a decoded block (``_FALL``: none, falls through).
_CONDBR, _BR, _RET, _DETACH, _REATTACH, _FALL = range(6)

Frame = Dict[Value, object]
Step = Callable[[Frame], None]


class Memory:
    """Flat word-addressable memory with globals laid out at the base."""

    def __init__(self, module: Module, heap_words: int = 0):
        self.module = module
        self.base: Dict[str, int] = {}
        addr = 0
        for name, glob in module.globals.items():
            self.base[name] = addr
            addr += glob.size_words
        self.words: List[float] = [0] * (addr + heap_words)

    # -- raw access -----------------------------------------------------
    def read(self, addr: int):
        words = self.words
        if not 0 <= addr < len(words):
            raise self._out_of_range(addr)
        return words[addr]

    def write(self, addr: int, value) -> None:
        words = self.words
        if not 0 <= addr < len(words):
            raise self._out_of_range(addr)
        words[addr] = value

    def _out_of_range(self, addr: int) -> InterpreterError:
        return InterpreterError(
            f"memory access out of range: {addr} "
            f"(size {len(self.words)})")

    # -- array-level helpers ---------------------------------------------
    def set_array(self, name: str, values: Sequence) -> None:
        """Initialize global ``name``; tensor arrays take tuples."""
        glob = self.module.globals[name]
        base = self.base[name]
        if isinstance(glob.elem, TensorType):
            n = glob.elem.elements
            for i, tile in enumerate(values):
                if len(tile) != n:
                    raise InterpreterError(
                        f"tensor element {i} of @{name} has {len(tile)} "
                        f"values, expected {n}")
                for j, v in enumerate(tile):
                    self.write(base + i * n + j, v)
        else:
            for i, v in enumerate(values):
                self.write(base + i, v)

    def get_array(self, name: str) -> List:
        glob = self.module.globals[name]
        base = self.base[name]
        if isinstance(glob.elem, TensorType):
            n = glob.elem.elements
            return [tuple(self.words[base + i * n: base + (i + 1) * n])
                    for i in range(glob.size)]
        return list(self.words[base: base + glob.size])

    def snapshot(self) -> List[float]:
        return list(self.words)


class Interpreter:
    """Executes a module's ``main`` against a :class:`Memory`."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 block_hook=None):
        self.module = module
        self.memory = memory or Memory(module)
        self.block_hook = block_hook
        self._code: Dict[Function, _Code] = {}
        self._steps = 0

    # ------------------------------------------------------------------
    def run(self, *args):
        """Run ``main(*args)``; returns its return value (or None)."""
        return self.run_function(self.module.main, list(args))

    def run_function(self, function: Function, args: Sequence):
        if len(args) != len(function.args):
            raise InterpreterError(
                f"@{function.name} expects {len(function.args)} args, "
                f"got {len(args)}")
        function.entry  # raises IRError for a function without blocks
        code = self._code.get(function)
        if code is None:
            # Call ops reach this interpreter through a weak reference,
            # so the decoded code never makes it cyclic garbage.
            code = self._code[function] = _decode(
                function, self.memory, weakref.ref(self))
        frame = dict(code.constants)
        frame.update(zip(function.args, args))
        return self._exec_region(code.blocks, 0, frame, None)

    # ------------------------------------------------------------------
    def _exec_region(self, blocks: List["_Block"], index: int,
                     frame: Frame, stop: Optional[int]):
        """Execute from block ``index`` until ``ret`` or a reattach to
        block ``stop``."""
        hook = self.block_hook
        prev: Optional[int] = None
        try:
            while index != stop:
                b = blocks[index]
                if hook is not None:
                    hook(b.block)
                self._steps += b.size
                if self._steps > MAX_STEPS:
                    raise InterpreterError("interpreter step limit exceeded")
                if b.phis is not None:
                    move = b.phis.get(prev)
                    if move is None:
                        if prev is None:
                            raise InterpreterError(
                                f"entered block {b.block.name} with phis "
                                f"without predecessor")
                        # No phi names this predecessor: the move
                        # raises IRError for the first phi.
                        move = _phi_moves(b.block.phis, blocks[prev].block)
                    move(frame)
                for step in b.body:
                    step(frame)
                kind = b.kind
                if kind == _CONDBR:
                    prev = index
                    index = b.succ if frame[b.arg] else b.alt
                elif kind == _BR:
                    prev, index = index, b.succ
                elif kind == _RET:
                    return None if b.arg is None else frame[b.arg]
                elif kind == _DETACH:
                    # Serial elision: run the detached region inline.
                    self._exec_region(blocks, b.succ, frame, b.alt)
                    prev, index = index, b.alt
                elif kind == _REATTACH:
                    if stop is not None and b.succ != stop:
                        raise InterpreterError(
                            "reattach to unexpected continuation")
                    return None
                else:
                    raise InterpreterError(
                        f"block {b.block.name} fell through without "
                        f"terminator")
        except KeyError as exc:
            value = exc.args[0] if exc.args else None
            if isinstance(value, Value) and value not in frame:
                raise InterpreterError(
                    f"use of undefined value {value.short()}") from None
            raise
        return None


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

class _Code(NamedTuple):
    """A decoded function: its blocks (entry first) and the constants
    and global bases every activation frame starts with."""

    blocks: List["_Block"]
    constants: Frame


class _Block:
    """One decoded basic block.

    ``phis`` maps a predecessor's index to the step running the block's
    phi moves (None without phis); ``body`` holds the steps of the
    straight-line instructions (``sync`` is a no-op, so it has no
    step); ``kind`` is the terminator, with its operand ``arg`` and
    block indices ``succ``/``alt``; ``size`` is the number of
    instructions a visit executes.
    """

    __slots__ = ("block", "phis", "body", "kind", "arg", "succ", "alt",
                 "size")

    def __init__(self, block: BasicBlock):
        self.block = block
        self.phis: Optional[Dict[int, Step]] = None
        self.body: Tuple[Step, ...] = ()
        self.kind = _FALL
        self.arg: Optional[Value] = None
        self.succ: Optional[int] = None
        self.alt: Optional[int] = None
        self.size = 0


def _split(block: BasicBlock):
    """(phis, straight-line instructions incl. ``sync``, terminator or
    None) as execution sees them: every phi of the block, then the
    other instructions up to the first terminator."""
    body: List[Instruction] = []
    for instr in block.instructions:
        if isinstance(instr, Phi):
            continue
        if isinstance(instr, (Return, Branch, CondBranch, Detach,
                              Reattach)):
            return block.phis, body, instr
        body.append(instr)
    return block.phis, body, None


def _decode(function: Function, memory: Memory, interp) -> _Code:
    """Decode ``function``: its blocks in order, then every other block
    a terminator or phi names."""
    order = list(function.blocks)
    index = {block: i for i, block in enumerate(order)}

    def index_of(block: BasicBlock) -> int:
        if block not in index:
            index[block] = len(order)
            order.append(block)
        return index[block]

    constants: Frame = {}

    def note(values) -> None:
        for v in values:
            if isinstance(v, Constant):
                constants[v] = v.value
            elif isinstance(v, GlobalArray) and v.name in memory.base:
                constants[v] = memory.base[v.name]

    blocks = []
    for block in order:  # grows as blocks are named
        phis, body, term = _split(block)
        b = _Block(block)
        if phis:
            b.phis = {}
            for phi in phis:
                for pred, v in phi.incomings:
                    note((v,))
                    if index_of(pred) not in b.phis:
                        b.phis[index[pred]] = _phi_moves(phis, pred)
        for instr in body:
            note(instr.operands)
        b.body = tuple(_decode_step(i, memory, interp) for i in body
                       if not isinstance(i, Sync))
        b.size = len(phis) + len(body) + (term is not None)
        if term is not None:
            note(term.operands)
        if isinstance(term, CondBranch):
            b.kind, b.arg = _CONDBR, term.cond
            b.succ = index_of(term.then_block)
            b.alt = index_of(term.else_block)
        elif isinstance(term, Branch):
            b.kind, b.succ = _BR, index_of(term.target)
        elif isinstance(term, Return):
            b.kind, b.arg = _RET, term.value
        elif isinstance(term, Detach):
            b.kind = _DETACH
            b.succ, b.alt = index_of(term.body), index_of(term.cont)
        elif isinstance(term, Reattach):
            b.kind, b.succ = _REATTACH, index_of(term.cont)
        blocks.append(b)
    return _Code(blocks, constants)


def _phi_moves(phis: List[Phi], pred: BasicBlock) -> Step:
    """The parallel copy into ``phis`` on entry from ``pred``: every
    incoming value is read before any phi is written."""
    dsts: List[Phi] = []
    srcs: List[Value] = []
    for phi in phis:
        src = next((v for p, v in phi.incomings if p is pred), None)
        if src is None:
            def missing(frame: Frame, phi=phi) -> None:
                for v in srcs:
                    frame[v]
                phi.incoming_for(pred)  # raises IRError
            return missing
        dsts.append(phi)
        srcs.append(src)
    if len(dsts) == 1:
        (dst,), (src,) = dsts, srcs

        def move(frame: Frame) -> None:
            frame[dst] = frame[src]
        return move
    fetch = operator.itemgetter(*srcs)

    def moves(frame: Frame) -> None:
        frame.update(zip(dsts, fetch(frame)))
    return moves


def _decode_step(instr: Instruction, memory: Memory, interp) -> Step:
    try:
        return _step(instr, memory, interp)
    except Exception as exc:  # a malformed op fails when it executes
        error = exc.with_traceback(None)  # keeps no decode frames alive
    return _failing(instr.operands, lambda: error)


def _failing(operands: Sequence[Value],
             error: Callable[[], Exception]) -> Step:
    """A step that reads its operands, as every op does, then raises."""
    def step(frame: Frame) -> None:
        for v in operands:
            frame[v]
        raise error()
    return step


def _step(instr: Instruction, memory: Memory, interp) -> Step:
    op = instr.opcode
    operands = instr.operands
    if isinstance(instr, Call):
        return _call(instr, interp)
    if op in MEMORY_OPS:
        return _memory_step(instr, memory)
    if op == "gep":
        ptr_t = operands[0].type
        assert isinstance(ptr_t, PointerType)
        return _gep(instr, ptr_t.pointee.words)
    if op in _INT_BINOPS or op == "lshr":
        t = instr.type
        if op == "lshr":
            low = (1 << (t.bits if t.bits else 32)) - 1
            raw = lambda a, b: (a & low) >> (b & 31)  # noqa: E731
        else:
            raw = _INT_BINOPS[op]
        if isinstance(t, IntType) and t.signed:
            return _signed_binop(instr, raw, t.width)
        wrap = _wrapper(t)
        fn = lambda a, b: wrap(raw(int(a), int(b)))  # noqa: E731
    elif op in _FLOAT_BINOPS:
        return _float_binop(instr, _FLOAT_BINOPS[op])
    elif op in _COMPUTE:
        fn = _COMPUTE[op]
    elif op in ("neg", "not"):
        wrap = _wrapper(instr.type)
        fn = ((lambda a: wrap(-a)) if op == "neg"
              else (lambda a: wrap(~int(a))))
    elif op == "tmul":
        t = instr.type
        fn = lambda a, b: _matmul(a, b, t.rows, t.cols)  # noqa: E731
    else:
        return _failing(operands,
                        lambda: InterpreterError(f"unsupported opcode {op}"))
    return _apply(instr, fn, operands)


def _gep(instr: Instruction, stride: int) -> Step:
    base, offset = instr.operands

    def gep(frame: Frame) -> None:
        frame[instr] = frame[base] + int(frame[offset]) * stride
    return gep


def _signed_binop(instr: Instruction, raw: Callable[[int, int], int],
                  width: int) -> Step:
    """``raw`` on the operands as ints, wrapped to a signed ``width``."""
    a, b = instr.operands
    mask = (1 << width) - 1
    sign, span = 1 << (width - 1), 1 << width

    def signed(frame: Frame) -> None:
        v = raw(int(frame[a]), int(frame[b])) & mask
        frame[instr] = v - span if v >= sign else v
    return signed


def _float_binop(instr: Instruction, raw: Callable) -> Step:
    a, b = instr.operands

    def fbinop(frame: Frame) -> None:
        frame[instr] = raw(float(frame[a]), float(frame[b]))
    return fbinop


def _apply(dst: Value, fn: Callable, operands: Sequence[Value]) -> Step:
    """``frame[dst] = fn(*operand values)``."""
    if len(operands) == 1:
        (a,) = operands

        def unary(frame: Frame) -> None:
            frame[dst] = fn(frame[a])
        return unary
    if len(operands) == 2:
        a, b = operands

        def binary(frame: Frame) -> None:
            frame[dst] = fn(frame[a], frame[b])
        return binary
    fetch = operator.itemgetter(*operands)

    def nary(frame: Frame) -> None:
        frame[dst] = fn(*fetch(frame))
    return nary


def _call(instr: Call, interp) -> Step:
    callee = instr.callee
    args = instr.operands
    keeps = bool(instr.type.bits)

    def call(frame: Frame) -> None:
        result = interp().run_function(callee, [frame[a] for a in args])
        if keeps or result is not None:
            frame[instr] = result
    return call


def _memory_step(instr: Instruction, memory: Memory) -> Step:
    op = instr.opcode
    read, write = memory.read, memory.write
    if op == "load":
        (addr,) = instr.operands

        def load(frame: Frame) -> None:
            frame[instr] = read(frame[addr])
        return load
    if op == "store":
        value, addr = instr.operands

        def store(frame: Frame) -> None:
            v = frame[value]
            write(frame[addr], v)
        return store
    if op == "tload":
        (addr,) = instr.operands
        t = instr.type
        assert isinstance(t, TensorType)
        offsets = range(t.elements)

        def tload(frame: Frame) -> None:
            base = frame[addr]
            frame[instr] = tuple([read(base + i) for i in offsets])
        return tload
    tile, addr = instr.operands

    def tstore(frame: Frame) -> None:
        values = frame[tile]
        base = frame[addr]
        for i, v in enumerate(values):
            write(base + i, v)
    return tstore


# ----------------------------------------------------------------------
# Op semantics
# ----------------------------------------------------------------------

def _wrapper(t) -> Callable[[object], int]:
    """Wraps an integer result to type ``t``: two's complement for
    ints, one bit for bools, plain ``int`` otherwise."""
    if isinstance(t, IntType):
        mask = (1 << t.width) - 1
        if not t.signed:
            return lambda v: int(v) & mask
        sign, span = 1 << (t.width - 1), 1 << t.width

        def wrap(v) -> int:
            v = int(v) & mask
            return v - span if v >= sign else v
        return wrap
    if isinstance(t, BoolType):
        return lambda v: int(v) & 1
    return int


def _div(a: int, b: int) -> int:
    """Integer division truncating toward zero."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    return int(a / b) if (a < 0) != (b < 0) and a % b else a // b


def _rem(a: int, b: int) -> int:
    """Remainder with the sign of the dividend."""
    if b == 0:
        raise InterpreterError("integer remainder by zero")
    return a - (int(a / b) if (a < 0) != (b < 0) and a % b
                else a // b) * b


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise InterpreterError("float division by zero")
    return a / b


def _matmul(a: Tuple, b: Tuple, n: int, m: int) -> Tuple:
    """rows x cols matrix product (square tiles)."""
    out = []
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(m):
                acc += a[i * m + k] * b[k * m + j]
            out.append(acc)
    return tuple(out)


#: Integer ops on Python ints; shift amounts are masked to 5 bits.
_INT_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _div, "rem": _rem,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": lambda a, b: a << (b & 31),
    "ashr": lambda a, b: a >> (b & 31),
}

#: Float ops on the operands as floats (``fdiv`` checks for zero).
_FLOAT_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": operator.add, "fsub": operator.sub, "fmul": operator.mul,
    "fdiv": _fdiv,
}

#: Ops whose semantics do not depend on the result type.
_COMPUTE: Dict[str, Callable] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
    "select": lambda c, a, b: a if c else b,
    "fneg": lambda a: -float(a),
    "abs": abs,
    "exp": lambda a: math.exp(float(a)),
    "sqrt": lambda a: math.sqrt(float(a)),
    "itof": float,
    "ftoi": int,
    "tadd": lambda a, b: tuple(x + y for x, y in zip(a, b)),
    "tsub": lambda a, b: tuple(x - y for x, y in zip(a, b)),
    "trelu": lambda a: tuple(v if v > 0 else 0.0 for v in a),
}
