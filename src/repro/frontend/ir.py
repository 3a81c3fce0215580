"""LLVM-like software IR.

This is the "compiler IR" layer of the paper's Figure 3: programs
(MiniC text or builder calls) lower into this IR, classic analyses run
on it (CFG, dominators, loops), and :mod:`repro.frontend.translate`
converts it into the structural uIR graph.

The IR is SSA-flavored: every instruction producing a value is itself a
:class:`Value` and operands reference producer objects directly.  Loops
carry their values through :class:`Phi` instructions.  Parallelism uses
the Tapir representation the paper builds on: ``detach`` spawns a block
to run concurrently, ``reattach`` ends the spawned region, and ``sync``
waits for all children spawned by the current frame.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError, TypeMismatchError
from ..types import (
    BOOL,
    VOID,
    FloatType,
    IntType,
    PointerType,
    TensorType,
    Type,
    common_type,
)

# ---------------------------------------------------------------------------
# Opcode tables
# ---------------------------------------------------------------------------

INT_BINOPS = {"add", "sub", "mul", "div", "rem",
              "and", "or", "xor", "shl", "lshr", "ashr"}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv"}
CMP_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
TENSOR_BINOPS = {"tmul", "tadd", "tsub"}
TENSOR_UNOPS = {"trelu"}
MEMORY_OPS = {"load", "store", "tload", "tstore"}
TERMINATORS = {"br", "condbr", "ret", "detach", "reattach"}


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    """Anything usable as an instruction operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name

    def short(self) -> str:
        return f"%{self.name}" if self.name else "%?"


class Constant(Value):
    """An immediate scalar (or tensor literal) value."""

    def __init__(self, value, type_: Type):
        super().__init__(type_, name=str(value))
        self.value = value

    def short(self) -> str:
        return f"{self.value}:{self.type}"

    def __repr__(self) -> str:
        return f"Constant({self.value}, {self.type})"


class Argument(Value):
    """A function parameter."""

    def __init__(self, name: str, type_: Type, index: int):
        super().__init__(type_, name)
        self.index = index

    def __repr__(self) -> str:
        return f"Argument(%{self.name}:{self.type})"


class GlobalArray(Value):
    """A module-level array living in the global address space.

    ``size`` counts *elements* (scalars or whole tensors).  The
    interpreter and simulator assign word-granular base addresses.
    """

    def __init__(self, name: str, elem: Type, size: int):
        super().__init__(PointerType(elem), name)
        self.elem = elem
        self.size = size

    @property
    def size_words(self) -> int:
        return self.size * self.elem.words

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return f"GlobalArray(@{self.name}: {self.elem}[{self.size}])"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

class Instruction(Value):
    """A single IR operation inside a basic block."""

    def __init__(self, opcode: str, operands: Sequence[Value],
                 type_: Type = VOID, name: str = ""):
        super().__init__(type_, name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.block: Optional["BasicBlock"] = None
        #: MiniC source line that produced this instruction (0 =
        #: synthetic); stamped by IRBuilder from its current line.
        self.line: int = 0

    # --- classification helpers ------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS or self.opcode == "sync"

    @property
    def is_phi(self) -> bool:
        return self.opcode == "phi"

    def __repr__(self) -> str:
        ops = ", ".join(op.short() for op in self.operands)
        if self.type == VOID:
            return f"{self.opcode} {ops}"
        return f"%{self.name} = {self.opcode} {ops} : {self.type}"


class Phi(Instruction):
    """SSA phi: selects a value by predecessor block."""

    def __init__(self, type_: Type, name: str = ""):
        super().__init__("phi", [], type_, name)
        self.incomings: List[Tuple["BasicBlock", Value]] = []

    def add_incoming(self, block: "BasicBlock", value: Value) -> None:
        self.incomings.append((block, value))
        self.operands.append(value)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for b, v in self.incomings:
            if b is block:
                return v
        raise IRError(f"phi {self.name} has no incoming for {block.name}")

    def __repr__(self) -> str:
        inc = ", ".join(f"[{b.name}: {v.short()}]" for b, v in self.incomings)
        return f"%{self.name} = phi {inc} : {self.type}"


class Branch(Instruction):
    def __init__(self, target: "BasicBlock"):
        super().__init__("br", [])
        self.target = target

    def __repr__(self) -> str:
        return f"br {self.target.name}"


class CondBranch(Instruction):
    def __init__(self, cond: Value, then_block: "BasicBlock",
                 else_block: "BasicBlock"):
        super().__init__("condbr", [cond])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return (f"condbr {self.cond.short()}, "
                f"{self.then_block.name}, {self.else_block.name}")


class Return(Instruction):
    def __init__(self, value: Optional[Value] = None):
        super().__init__("ret", [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def __repr__(self) -> str:
        return f"ret {self.value.short()}" if self.operands else "ret"


class Call(Instruction):
    """Direct call; ``spawned`` marks a Cilk-style spawn site."""

    def __init__(self, callee: "Function", args: Sequence[Value],
                 name: str = "", spawned: bool = False):
        super().__init__("call", args, callee.return_type, name)
        self.callee = callee
        self.spawned = spawned

    def __repr__(self) -> str:
        kind = "spawn" if self.spawned else "call"
        args = ", ".join(a.short() for a in self.operands)
        lhs = f"%{self.name} = " if self.type != VOID else ""
        return f"{lhs}{kind} @{self.callee.name}({args})"


class Detach(Instruction):
    """Tapir detach: run ``body`` concurrently, continue at ``cont``."""

    def __init__(self, body: "BasicBlock", cont: "BasicBlock"):
        super().__init__("detach", [])
        self.body = body
        self.cont = cont

    def __repr__(self) -> str:
        return f"detach {self.body.name}, {self.cont.name}"


class Reattach(Instruction):
    """Tapir reattach: terminates a detached region."""

    def __init__(self, cont: "BasicBlock"):
        super().__init__("reattach", [])
        self.cont = cont

    def __repr__(self) -> str:
        return f"reattach {self.cont.name}"


class Sync(Instruction):
    """Tapir sync: wait for every task detached by this frame."""

    def __init__(self):
        super().__init__("sync", [])

    @property
    def is_terminator(self) -> bool:  # sync does not end a block
        return False

    def __repr__(self) -> str:
        return "sync"


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, function: Optional["Function"] = None):
        self.name = name
        self.function = function
        self.instructions: List[Instruction] = []

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRError(f"block {self.name} already terminated")
        instr.block = self
        self.instructions.append(instr)
        return instr

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def phis(self) -> List[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Branch):
            return [term.target]
        if isinstance(term, CondBranch):
            return [term.then_block, term.else_block]
        if isinstance(term, Detach):
            return [term.body, term.cont]
        if isinstance(term, Reattach):
            return [term.cont]
        return []

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self.instructions)} instrs)"

    def dump(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {instr!r}" for instr in self.instructions)
        return "\n".join(lines)


class Function:
    """A function: arguments plus an ordered list of basic blocks."""

    def __init__(self, name: str, arg_specs: Sequence[Tuple[str, Type]],
                 return_type: Type = VOID):
        self.name = name
        self.args = [Argument(n, t, i)
                     for i, (n, t) in enumerate(arg_specs)]
        self.return_type = return_type
        self.blocks: List[BasicBlock] = []
        self.module: Optional["Module"] = None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, name: str) -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name), self)
        self.blocks.append(block)
        return block

    def _unique_block_name(self, base: str) -> str:
        names = {b.name for b in self.blocks}
        if base not in names:
            return base
        i = 1
        while f"{base}.{i}" in names:
            i += 1
        return f"{base}.{i}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return f"Function(@{self.name}, {len(self.blocks)} blocks)"

    def dump(self) -> str:
        args = ", ".join(f"%{a.name}: {a.type}" for a in self.args)
        header = f"func @{self.name}({args}) -> {self.return_type} {{"
        body = "\n".join(b.dump() for b in self.blocks)
        return f"{header}\n{body}\n}}"


class Module:
    """A whole program: globals + functions; ``main`` is the entry."""

    def __init__(self, name: str = "module"):
        self.name = name
        #: Path of the MiniC source this module was lowered from
        #: ("" for builder-constructed modules); provenance root.
        self.source_file: str = ""
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalArray] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def add_global(self, name: str, elem: Type, size: int) -> GlobalArray:
        if name in self.globals:
            raise IRError(f"duplicate global @{name}")
        glob = GlobalArray(name, elem, size)
        self.globals[name] = glob
        return glob

    @property
    def main(self) -> Function:
        if "main" not in self.functions:
            raise IRError("module has no @main function")
        return self.functions["main"]

    def dump(self) -> str:
        lines = [f"; module {self.name}"]
        for g in self.globals.values():
            lines.append(f"@{g.name}: {g.elem}[{g.size}]")
        lines.extend(f.dump() for f in self.functions.values())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Result-type computation and verification
# ---------------------------------------------------------------------------

def result_type(opcode: str, operands: Sequence[Value]) -> Type:
    """Infer the result type of ``opcode`` applied to ``operands``."""
    if opcode in INT_BINOPS:
        t = common_type(operands[0].type, operands[1].type)
        if not isinstance(t, (IntType, PointerType)):
            raise TypeMismatchError(f"{opcode} on {t}")
        return t
    if opcode in FLOAT_BINOPS:
        t = common_type(operands[0].type, operands[1].type)
        if not isinstance(t, FloatType):
            raise TypeMismatchError(f"{opcode} on {t}")
        return t
    if opcode in CMP_OPS:
        common_type(operands[0].type, operands[1].type)
        return BOOL
    if opcode == "select":
        return common_type(operands[1].type, operands[2].type)
    if opcode in {"neg", "not", "abs"}:
        return operands[0].type
    if opcode == "fneg":
        return operands[0].type
    if opcode in {"exp", "sqrt"}:
        return operands[0].type
    if opcode == "itof":
        return FloatType(32)
    if opcode == "ftoi":
        return IntType(32)
    if opcode == "gep":
        base_t = operands[0].type
        if not isinstance(base_t, PointerType):
            raise TypeMismatchError(f"gep base must be pointer, got {base_t}")
        return base_t
    if opcode == "load":
        ptr_t = operands[0].type
        if not isinstance(ptr_t, PointerType):
            raise TypeMismatchError(f"load from non-pointer {ptr_t}")
        return ptr_t.pointee
    if opcode == "tload":
        ptr_t = operands[0].type
        if not isinstance(ptr_t, PointerType) or \
                not isinstance(ptr_t.pointee, TensorType):
            raise TypeMismatchError(f"tload needs tensor pointer, {ptr_t}")
        return ptr_t.pointee
    if opcode in {"store", "tstore"}:
        return VOID
    if opcode in TENSOR_BINOPS:
        t = operands[0].type
        if not isinstance(t, TensorType):
            raise TypeMismatchError(f"{opcode} on non-tensor {t}")
        return t
    if opcode in TENSOR_UNOPS:
        return operands[0].type
    raise IRError(f"cannot infer result type for opcode {opcode!r}")


def verify_function(function: Function) -> List[str]:
    """Return a list of structural problems (empty = valid)."""
    problems: List[str] = []
    block_set = set(function.blocks)
    defined: set = set(function.args)
    for g in (function.module.globals.values() if function.module else ()):
        defined.add(g)
    for instr in function.instructions():
        defined.add(instr)
    for block in function.blocks:
        if not block.is_terminated:
            problems.append(f"block {block.name} lacks a terminator")
        for idx, instr in enumerate(block.instructions):
            if instr.is_terminator and idx != len(block.instructions) - 1:
                problems.append(
                    f"terminator mid-block in {block.name}: {instr!r}")
            for op in instr.operands:
                if isinstance(op, (Constant,)):
                    continue
                if op not in defined:
                    problems.append(
                        f"{block.name}: operand {op.short()} of "
                        f"{instr.opcode} is not defined in function")
            if isinstance(instr, Phi):
                for b, _v in instr.incomings:
                    if b not in block_set:
                        problems.append(
                            f"phi {instr.name} references foreign block "
                            f"{b.name}")
        for succ in block.successors():
            if succ not in block_set:
                problems.append(
                    f"{block.name} branches to foreign block {succ.name}")
    return problems


def verify_module(module: Module) -> List[str]:
    problems: List[str] = []
    for function in module.functions.values():
        problems.extend(
            f"@{function.name}: {p}" for p in verify_function(function))
    return problems


def users_of(function: Function) -> Dict[Value, List[Instruction]]:
    """Map each value to the instructions that consume it."""
    uses: Dict[Value, List[Instruction]] = {}
    for instr in function.instructions():
        for op in instr.operands:
            uses.setdefault(op, []).append(instr)
    return uses
