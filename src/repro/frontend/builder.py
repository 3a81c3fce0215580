"""Convenience builder for the software IR.

Workloads and the MiniC lowering both construct IR through this class.
Structured helpers (``for_range``, ``parallel_for``, ``if_else``) emit
the canonical CFG shapes that the uIR translator recognizes: counted
loops with a single header phi per carried value, and Tapir
detach/reattach regions for parallel iterations.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import IRError
from ..types import BOOL, I32, VOID, FloatType, TensorType, Type
from .ir import (
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
    result_type,
)

Operand = Union[Value, int, float]


class LoopHandle:
    """Handle returned by ``for_range``: induction var + carried values."""

    def __init__(self, builder: "IRBuilder", header: BasicBlock,
                 body: BasicBlock, exit_block: BasicBlock, var: Phi,
                 preheader: BasicBlock):
        self._builder = builder
        self.header = header
        self.body = body
        self.exit = exit_block
        self.var = var
        self._preheader = preheader
        self._carries: List[Tuple[Phi, Optional[Value]]] = []

    def carry(self, init: Operand, type_: Optional[Type] = None,
              name: str = "carry") -> Phi:
        """Declare a loop-carried value with initial value ``init``."""
        b = self._builder
        init_v = b.as_value(init, type_)
        phi = Phi(init_v.type, b.fresh(name))
        phi.add_incoming(self._preheader, init_v)
        # Phis must precede other header instructions.
        self.header.instructions.insert(
            len([i for i in self.header.instructions if i.is_phi]), phi)
        phi.block = self.header
        self._carries.append((phi, None))
        return phi

    def set_carry(self, phi: Phi, value: Value) -> None:
        """Provide the next-iteration value of a carried phi."""
        for idx, (p, _v) in enumerate(self._carries):
            if p is phi:
                self._carries[idx] = (p, value)
                return
        raise IRError("set_carry on unknown phi")

    def finish(self, latch: BasicBlock, next_var: Value) -> None:
        self.var.add_incoming(latch, next_var)
        for phi, update in self._carries:
            if update is None:
                raise IRError(
                    f"loop-carried phi {phi.name} never given an update")
            phi.add_incoming(latch, update)


class IfElseHandle:
    """Handle for structured if/else with optional value merge."""

    def __init__(self, builder: "IRBuilder", cond: Value,
                 then_block: BasicBlock, else_block: BasicBlock,
                 merge: BasicBlock):
        self._builder = builder
        self._cond = cond
        self._then = then_block
        self._else = else_block
        self.merge = merge
        self._then_value: Optional[Tuple[BasicBlock, Value]] = None
        self._else_value: Optional[Tuple[BasicBlock, Value]] = None
        self.phi: Optional[Phi] = None

    @contextlib.contextmanager
    def then(self):
        b = self._builder
        b.position(self._then)
        yield
        end = b.current
        if not end.is_terminated:
            b.branch(self.merge)
        self._then_end = end

    @contextlib.contextmanager
    def otherwise(self):
        b = self._builder
        b.position(self._else)
        yield
        end = b.current
        if not end.is_terminated:
            b.branch(self.merge)
        self._else_end = end

    def then_value(self, value: Value) -> None:
        self._then_value = (self._builder.current, value)

    def else_value(self, value: Value) -> None:
        self._else_value = (self._builder.current, value)

    def close(self) -> None:
        b = self._builder
        b.position(self.merge)
        if self._then_value and self._else_value:
            tb, tv = self._then_value
            eb, ev = self._else_value
            phi = Phi(tv.type, b.fresh("ifval"))
            phi.add_incoming(tb, tv)
            phi.add_incoming(eb, ev)
            self.merge.instructions.insert(0, phi)
            phi.block = self.merge
            self.phi = phi


class IRBuilder:
    """Builds software IR with automatic naming and type inference."""

    def __init__(self, module: Optional[Module] = None):
        self.module = module or Module()
        self.function: Optional[Function] = None
        self.current: Optional[BasicBlock] = None
        self._counter = 0
        #: Source line stamped onto every appended instruction (0 =
        #: no source info); the MiniC lowering updates it per AST node.
        self.line = 0

    # ------------------------------------------------------------------
    # Module-level construction
    # ------------------------------------------------------------------
    def global_array(self, name: str, elem: Type, size: int) -> GlobalArray:
        return self.module.add_global(name, elem, size)

    def new_function(self, name: str, args: Sequence[Tuple[str, Type]],
                     return_type: Type = VOID) -> Function:
        function = Function(name, args, return_type)
        self.module.add_function(function)
        self.function = function
        self.current = function.new_block("entry")
        return function

    def arg(self, name: str) -> Value:
        if self.function is None:
            raise IRError("no current function")
        for a in self.function.args:
            if a.name == name:
                return a
        raise IRError(f"no argument named {name}")

    # ------------------------------------------------------------------
    # Positioning and naming
    # ------------------------------------------------------------------
    def position(self, block: BasicBlock) -> None:
        self.current = block

    def block(self, name: str) -> BasicBlock:
        if self.function is None:
            raise IRError("no current function")
        return self.function.new_block(name)

    def fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}{self._counter}"

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def const(self, value, type_: Optional[Type] = None) -> Constant:
        if type_ is None:
            if isinstance(value, bool):
                type_ = BOOL
            elif isinstance(value, int):
                type_ = I32
            elif isinstance(value, float):
                type_ = FloatType(32)
            else:
                raise IRError(f"cannot infer constant type for {value!r}")
        return Constant(value, type_)

    def as_value(self, v: Operand, type_: Optional[Type] = None) -> Value:
        if isinstance(v, Value):
            return v
        return self.const(v, type_)

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------
    def emit(self, opcode: str, operands: Sequence[Operand],
             name: str = "") -> Instruction:
        ops = [self.as_value(o) for o in operands]
        type_ = result_type(opcode, ops)
        instr = Instruction(opcode, ops, type_,
                            name or (self.fresh(opcode)
                                     if type_ != VOID else ""))
        self._append(instr)
        return instr

    def _append(self, instr: Instruction) -> Instruction:
        if self.current is None:
            raise IRError("builder has no current block")
        if not instr.line:
            instr.line = self.line
        self.current.append(instr)
        return instr

    # Arithmetic -------------------------------------------------------
    def add(self, a, b, name=""):
        return self.emit("add", [a, b], name)

    def sub(self, a, b, name=""):
        return self.emit("sub", [a, b], name)

    def mul(self, a, b, name=""):
        return self.emit("mul", [a, b], name)

    def div(self, a, b, name=""):
        return self.emit("div", [a, b], name)

    def rem(self, a, b, name=""):
        return self.emit("rem", [a, b], name)

    def and_(self, a, b, name=""):
        return self.emit("and", [a, b], name)

    def or_(self, a, b, name=""):
        return self.emit("or", [a, b], name)

    def xor(self, a, b, name=""):
        return self.emit("xor", [a, b], name)

    def shl(self, a, b, name=""):
        return self.emit("shl", [a, b], name)

    def lshr(self, a, b, name=""):
        return self.emit("lshr", [a, b], name)

    def ashr(self, a, b, name=""):
        return self.emit("ashr", [a, b], name)

    def fadd(self, a, b, name=""):
        return self.emit("fadd", [a, b], name)

    def fsub(self, a, b, name=""):
        return self.emit("fsub", [a, b], name)

    def fmul(self, a, b, name=""):
        return self.emit("fmul", [a, b], name)

    def fdiv(self, a, b, name=""):
        return self.emit("fdiv", [a, b], name)

    def exp(self, a, name=""):
        return self.emit("exp", [a], name)

    def sqrt(self, a, name=""):
        return self.emit("sqrt", [a], name)

    def itof(self, a, name=""):
        return self.emit("itof", [a], name)

    def ftoi(self, a, name=""):
        return self.emit("ftoi", [a], name)

    def cmp(self, pred: str, a, b, name=""):
        return self.emit(pred, [a, b], name)

    def select(self, cond, a, b, name=""):
        return self.emit("select", [cond, a, b], name)

    # Tensor ops -------------------------------------------------------
    def tmul(self, a, b, name=""):
        return self.emit("tmul", [a, b], name)

    def tadd(self, a, b, name=""):
        return self.emit("tadd", [a, b], name)

    def trelu(self, a, name=""):
        return self.emit("trelu", [a], name)

    # Memory -----------------------------------------------------------
    def gep(self, base: Value, index: Operand, name=""):
        return self.emit("gep", [base, index], name)

    def load(self, ptr: Value, name=""):
        return self.emit("load", [ptr], name)

    def store(self, value: Operand, ptr: Value):
        return self.emit("store", [value, ptr])

    def tload(self, ptr: Value, name=""):
        return self.emit("tload", [ptr], name)

    def tstore(self, value: Value, ptr: Value):
        return self.emit("tstore", [value, ptr])

    def index(self, array: GlobalArray, idx: Operand, name=""):
        """Address of ``array[idx]`` (a gep)."""
        return self.gep(array, idx, name)

    def load_elem(self, array: GlobalArray, idx: Operand, name=""):
        ptr = self.index(array, idx)
        if isinstance(array.elem, TensorType):
            return self.tload(ptr, name)
        return self.load(ptr, name)

    def store_elem(self, array: GlobalArray, idx: Operand, value: Operand):
        ptr = self.index(array, idx)
        if isinstance(array.elem, TensorType):
            return self.tstore(value, ptr)
        return self.store(value, ptr)

    # Calls and parallelism ---------------------------------------------
    def call(self, callee: Function, args: Sequence[Operand],
             name: str = "", spawned: bool = False) -> Call:
        instr = Call(callee, [self.as_value(a) for a in args],
                     name or (self.fresh("call")
                              if callee.return_type != VOID else ""),
                     spawned=spawned)
        self._append(instr)
        return instr

    def spawn(self, callee: Function, args: Sequence[Operand],
              name: str = "") -> Call:
        return self.call(callee, args, name, spawned=True)

    def sync(self) -> Sync:
        instr = Sync()
        self._append(instr)
        return instr

    # Control flow -------------------------------------------------------
    def branch(self, target: BasicBlock) -> Branch:
        instr = Branch(target)
        self._append(instr)
        return instr

    def cond_branch(self, cond: Value, then_block: BasicBlock,
                    else_block: BasicBlock) -> CondBranch:
        instr = CondBranch(cond, then_block, else_block)
        self._append(instr)
        return instr

    def ret(self, value: Optional[Operand] = None) -> Return:
        v = self.as_value(value) if value is not None else None
        instr = Return(v)
        self._append(instr)
        return instr

    # Structured helpers ---------------------------------------------------
    @contextlib.contextmanager
    def for_range(self, name: str, start: Operand, bound: Operand,
                  step: Operand = 1):
        """Counted loop ``for (name = start; name < bound; name += step)``.

        Yields a :class:`LoopHandle`; the builder is positioned in the
        loop body inside the ``with`` and at the exit block after it.
        """
        preheader = self.current
        header = self.block(f"{name}.header")
        body = self.block(f"{name}.body")
        exit_block = self.block(f"{name}.exit")

        start_v = self.as_value(start, I32)
        bound_v = self.as_value(bound, I32)
        step_v = self.as_value(step, I32)

        self.branch(header)
        self.position(header)
        var = Phi(I32, name)
        var.add_incoming(preheader, start_v)
        header.append(var)
        cond = self.cmp("lt", var, bound_v)
        self.cond_branch(cond, body, exit_block)

        self.position(body)
        handle = LoopHandle(self, header, body, exit_block, var, preheader)
        yield handle
        latch = self.current
        next_var = self.add(var, step_v, name=self.fresh(f"{name}.next"))
        self.branch(header)
        handle.finish(latch, next_var)
        self.position(exit_block)

    @contextlib.contextmanager
    def parallel_for(self, name: str, start: Operand, bound: Operand,
                     step: Operand = 1):
        """Tapir parallel loop: each iteration body is detached.

        The body must not carry values between iterations (communicate
        through memory), matching Cilk ``parallel_for`` semantics.
        """
        preheader = self.current
        header = self.block(f"{name}.header")
        spawn_block = self.block(f"{name}.detach")
        body = self.block(f"{name}.task")
        latch = self.block(f"{name}.latch")
        exit_block = self.block(f"{name}.exit")

        start_v = self.as_value(start, I32)
        bound_v = self.as_value(bound, I32)
        step_v = self.as_value(step, I32)

        self.branch(header)
        self.position(header)
        var = Phi(I32, name)
        var.add_incoming(preheader, start_v)
        header.append(var)
        cond = self.cmp("lt", var, bound_v)
        self.cond_branch(cond, spawn_block, exit_block)

        self.position(spawn_block)
        detach = Detach(body, latch)
        self._append(detach)

        self.position(body)
        yield var
        if not self.current.is_terminated:
            self._append(Reattach(latch))

        self.position(latch)
        next_var = self.add(var, step_v, name=self.fresh(f"{name}.next"))
        self.branch(header)
        var.add_incoming(latch, next_var)

        self.position(exit_block)
        self.sync()

    @contextlib.contextmanager
    def if_then(self, cond: Value):
        then_block = self.block("if.then")
        merge = self.block("if.merge")
        self.cond_branch(cond, then_block, merge)
        self.position(then_block)
        yield
        if not self.current.is_terminated:
            self.branch(merge)
        self.position(merge)

    @contextlib.contextmanager
    def if_else(self, cond: Value):
        then_block = self.block("if.then")
        else_block = self.block("if.else")
        merge = self.block("if.merge")
        self.cond_branch(cond, then_block, else_block)
        handle = IfElseHandle(self, cond, then_block, else_block, merge)
        yield handle
        handle.close()
