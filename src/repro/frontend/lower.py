"""Lowering from the MiniC AST to software IR with SSA construction.

Mutable local variables become SSA values using the on-the-fly
algorithm of Braun et al. (CC'13): per-block variable maps, incomplete
phis in unsealed blocks (loop headers), and a post-pass that removes
trivial phis.  Parallel loops lower to Tapir detach/reattach regions
and ``spawn`` calls to spawned ``call`` instructions, mirroring how the
paper ingests Cilk through LLVM/Tapir.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import LoweringError
from ..types import (
    BOOL,
    F32,
    I32,
    VOID,
    FloatType,
    IntType,
    PointerType,
    TensorType,
    Type,
)
from . import ast
from .builder import IRBuilder
from .ir import (
    BasicBlock,
    Constant,
    Detach,
    Function,
    GlobalArray,
    Module,
    Phi,
    Reattach,
    Return,
    Value,
)

_BINOP_INT = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
              "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
              "&&": "and", "||": "or"}
_BINOP_FLOAT = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_BINOP_TENSOR = {"+": "tadd", "-": "tsub", "*": "tmul"}
_CMP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_BUILTINS = {"exp", "sqrt", "abs", "tmul", "tadd", "trelu"}


class SSABuilder:
    """Braun-style SSA variable numbering over a function under construction."""

    def __init__(self):
        self.defs: Dict[str, Dict[BasicBlock, Value]] = {}
        self.sealed: Set[BasicBlock] = set()
        self.incomplete: Dict[BasicBlock, Dict[str, Phi]] = {}
        self.preds: Dict[BasicBlock, List[BasicBlock]] = {}

    def add_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        self.preds.setdefault(dst, []).append(src)

    def write(self, var: str, block: BasicBlock, value: Value) -> None:
        self.defs.setdefault(var, {})[block] = value

    def read(self, var: str, block: BasicBlock,
             type_: Type = I32) -> Value:
        block_defs = self.defs.setdefault(var, {})
        if block in block_defs:
            return block_defs[block]
        return self._read_recursive(var, block, type_)

    def _read_recursive(self, var: str, block: BasicBlock,
                        type_: Type) -> Value:
        preds = self.preds.get(block, [])
        if block not in self.sealed:
            phi = Phi(type_, f"{var}.phi")
            self._insert_phi(block, phi)
            self.incomplete.setdefault(block, {})[var] = phi
            value: Value = phi
        elif len(preds) == 1:
            value = self.read(var, preds[0], type_)
        elif not preds:
            raise LoweringError(
                f"variable {var!r} read before assignment")
        else:
            phi = Phi(type_, f"{var}.phi")
            self._insert_phi(block, phi)
            self.write(var, block, phi)
            value = self._add_phi_operands(var, phi, block)
        self.write(var, block, value)
        return value

    @staticmethod
    def _insert_phi(block: BasicBlock, phi: Phi) -> None:
        n_phis = len([i for i in block.instructions if i.is_phi])
        block.instructions.insert(n_phis, phi)
        phi.block = block

    def _add_phi_operands(self, var: str, phi: Phi,
                          block: BasicBlock) -> Value:
        for pred in self.preds.get(block, []):
            value = self.read(var, pred)
            phi.add_incoming(pred, value)
        if phi.incomings:
            phi.type = phi.incomings[0][1].type
        return phi

    def seal(self, block: BasicBlock) -> None:
        for var, phi in self.incomplete.pop(block, {}).items():
            self._add_phi_operands(var, phi, block)
        self.sealed.add(block)


class FunctionLowering:
    """Lowers one MiniC function body."""

    def __init__(self, program_lowering: "ProgramLowering",
                 decl: ast.FuncDecl, function: Function):
        self.pl = program_lowering
        self.decl = decl
        self.function = function
        self.builder = program_lowering.builder
        self.ssa = SSABuilder()
        self.var_types: Dict[str, Type] = {}
        # Stack of variable-name snapshots; non-empty while lowering a
        # detached (parallel_for) body; outer scalars are read-only there.
        self._task_frames: List[Set[str]] = []

    # ------------------------------------------------------------------
    def lower(self) -> None:
        b = self.builder
        b.function = self.function
        entry = self.function.entry
        b.position(entry)
        self.ssa.seal(entry)
        for arg in self.function.args:
            self.ssa.write(arg.name, entry, arg)
            self.var_types[arg.name] = arg.type
        self.lower_block(self.decl.body)
        self._terminate_open_blocks()
        remove_trivial_phis(self.function)

    def _terminate_open_blocks(self) -> None:
        for block in self.function.blocks:
            if block.is_terminated:
                continue
            if self.function.return_type == VOID:
                block.instructions.append(Return())
                block.instructions[-1].block = block
            else:
                zero = Constant(0, self.function.return_type)
                block.instructions.append(Return(zero))
                block.instructions[-1].block = block

    # -- control-flow plumbing -------------------------------------------
    def _branch(self, target: BasicBlock) -> None:
        src = self.builder.current
        self.builder.branch(target)
        self.ssa.add_edge(src, target)

    def _cond_branch(self, cond: Value, then_b: BasicBlock,
                     else_b: BasicBlock) -> None:
        src = self.builder.current
        self.builder.cond_branch(cond, then_b, else_b)
        self.ssa.add_edge(src, then_b)
        self.ssa.add_edge(src, else_b)

    # ------------------------------------------------------------------
    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            if self.builder.current.is_terminated:
                # Unreachable code after return; skip it.
                return
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if getattr(stmt, "line", 0):
            self.builder.line = stmt.line
        if isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.SpawnStmt):
            self._lower_spawn(stmt)
        elif isinstance(stmt, ast.SyncStmt):
            self.builder.sync()
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        else:
            raise LoweringError(f"unsupported statement {stmt!r}")

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        value = self.lower_expr(stmt.init)
        if stmt.declared_type is not None:
            value = self._coerce(value, stmt.declared_type, stmt.line)
        self.var_types[stmt.name] = value.type
        self.ssa.write(stmt.name, self.builder.current, value)

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            if target.ident not in self.var_types:
                raise LoweringError(
                    f"line {stmt.line}: assignment to undeclared variable "
                    f"{target.ident!r} (use 'var')")
            if self._task_frames and target.ident in self._task_frames[-1]:
                raise LoweringError(
                    f"line {stmt.line}: parallel_for body may not assign "
                    f"outer scalar {target.ident!r}; use an array")
            value = self.lower_expr(stmt.value)
            value = self._coerce(value, self.var_types[target.ident],
                                 stmt.line)
            self.ssa.write(target.ident, self.builder.current, value)
            return
        if isinstance(target, ast.Index):
            glob = self._resolve_array(target.base, stmt.line)
            idx = self._coerce(self.lower_expr(target.index), I32, stmt.line)
            value = self.lower_expr(stmt.value)
            value = self._coerce(value, glob.elem, stmt.line)
            ptr = self.builder.gep(glob, idx)
            if isinstance(glob.elem, TensorType):
                self.builder.tstore(value, ptr)
            else:
                self.builder.store(value, ptr)
            return
        raise LoweringError(f"line {stmt.line}: bad assignment target")

    def _lower_if(self, stmt: ast.If) -> None:
        b = self.builder
        cond = self._as_bool(self.lower_expr(stmt.cond), stmt.line)
        then_b = b.block("if.then")
        else_b = b.block("if.else") if stmt.else_block else None
        merge = b.block("if.merge")
        self._cond_branch(cond, then_b, else_b or merge)
        self.ssa.seal(then_b)
        b.position(then_b)
        self.lower_block(stmt.then_block)
        if not b.current.is_terminated:
            self._branch(merge)
        if else_b is not None:
            self.ssa.seal(else_b)
            b.position(else_b)
            self.lower_block(stmt.else_block)
            if not b.current.is_terminated:
                self._branch(merge)
        self.ssa.seal(merge)
        b.position(merge)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.parallel:
            self._lower_parallel_for(stmt)
        else:
            self._lower_serial_for(stmt)

    def _lower_serial_for(self, stmt: ast.For) -> None:
        b = self.builder
        init = self.lower_expr(stmt.init)
        self.var_types.setdefault(stmt.var, init.type)
        self.ssa.write(stmt.var, b.current, init)
        header = b.block(f"{stmt.var}.header")
        body = b.block(f"{stmt.var}.body")
        exit_b = b.block(f"{stmt.var}.exit")
        self._branch(header)
        b.position(header)
        cond = self._as_bool(self.lower_expr(stmt.cond), stmt.line)
        self._cond_branch(cond, body, exit_b)
        self.ssa.seal(body)
        b.position(body)
        self.lower_block(stmt.body)
        if not b.current.is_terminated:
            update = self.lower_expr(stmt.update)
            update = self._coerce(update, self.var_types[stmt.var],
                                  stmt.line)
            self.ssa.write(stmt.var, b.current, update)
            self._branch(header)
        self.ssa.seal(header)
        self.ssa.seal(exit_b)
        b.position(exit_b)

    def _lower_parallel_for(self, stmt: ast.For) -> None:
        b = self.builder
        init = self.lower_expr(stmt.init)
        self.var_types.setdefault(stmt.var, init.type)
        self.ssa.write(stmt.var, b.current, init)
        header = b.block(f"{stmt.var}.header")
        detach_b = b.block(f"{stmt.var}.detach")
        task_b = b.block(f"{stmt.var}.task")
        latch = b.block(f"{stmt.var}.latch")
        exit_b = b.block(f"{stmt.var}.exit")

        self._branch(header)
        b.position(header)
        cond = self._as_bool(self.lower_expr(stmt.cond), stmt.line)
        self._cond_branch(cond, detach_b, exit_b)

        self.ssa.seal(detach_b)
        b.position(detach_b)
        src = b.current
        b._append(Detach(task_b, latch))
        self.ssa.add_edge(src, task_b)
        self.ssa.add_edge(src, latch)

        self.ssa.seal(task_b)
        b.position(task_b)
        self._task_frames.append(set(self.var_types))
        self.lower_block(stmt.body)
        self._task_frames.pop()
        if not b.current.is_terminated:
            b._append(Reattach(latch))

        self.ssa.seal(latch)
        b.position(latch)
        update = self.lower_expr(stmt.update)
        update = self._coerce(update, self.var_types[stmt.var], stmt.line)
        self.ssa.write(stmt.var, b.current, update)
        self._branch(header)
        self.ssa.seal(header)
        self.ssa.seal(exit_b)
        b.position(exit_b)
        b.sync()

    def _lower_while(self, stmt: ast.While) -> None:
        b = self.builder
        header = b.block("while.header")
        body = b.block("while.body")
        exit_b = b.block("while.exit")
        self._branch(header)
        b.position(header)
        cond = self._as_bool(self.lower_expr(stmt.cond), stmt.line)
        self._cond_branch(cond, body, exit_b)
        self.ssa.seal(body)
        b.position(body)
        self.lower_block(stmt.body)
        if not b.current.is_terminated:
            self._branch(header)
        self.ssa.seal(header)
        self.ssa.seal(exit_b)
        b.position(exit_b)

    def _lower_spawn(self, stmt: ast.SpawnStmt) -> None:
        call = stmt.call
        callee = self.pl.functions.get(call.func)
        if callee is None:
            raise LoweringError(
                f"line {stmt.line}: spawn of unknown function {call.func!r}")
        args = self._lower_call_args(callee, call, stmt.line)
        self.builder.call(callee, args, spawned=True)

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            self.builder.ret()
            return
        value = self.lower_expr(stmt.value)
        value = self._coerce(value, self.function.return_type, stmt.line)
        self.builder.ret(value)

    # -- expressions -------------------------------------------------------
    def lower_expr(self, expr: ast.Expr) -> Value:
        b = self.builder
        if getattr(expr, "line", 0):
            b.line = expr.line
        if isinstance(expr, ast.IntLit):
            return b.const(expr.value, I32)
        if isinstance(expr, ast.FloatLit):
            return b.const(expr.value, F32)
        if isinstance(expr, ast.Name):
            if expr.ident in self.var_types:
                return self.ssa.read(expr.ident, b.current,
                                     self.var_types[expr.ident])
            if expr.ident in self.pl.module.globals:
                return self.pl.module.globals[expr.ident]
            raise LoweringError(
                f"line {expr.line}: unknown name {expr.ident!r}")
        if isinstance(expr, ast.Index):
            glob = self._resolve_array(expr.base, expr.line)
            idx = self._coerce(self.lower_expr(expr.index), I32, expr.line)
            ptr = b.gep(glob, idx)
            if isinstance(glob.elem, TensorType):
                return b.tload(ptr)
            return b.load(ptr)
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self._lower_unop(expr)
        if isinstance(expr, ast.CastExpr):
            return self._lower_cast(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        raise LoweringError(f"unsupported expression {expr!r}")

    def _lower_binop(self, expr: ast.BinOp) -> Value:
        b = self.builder
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        left, right = self._unify(left, right, expr.line)
        t = left.type
        if expr.op in _CMP:
            return b.cmp(_CMP[expr.op], left, right)
        if isinstance(t, TensorType):
            opcode = _BINOP_TENSOR.get(expr.op)
            if opcode is None:
                raise LoweringError(
                    f"line {expr.line}: operator {expr.op!r} on tensors")
            return b.emit(opcode, [left, right])
        if isinstance(t, FloatType):
            opcode = _BINOP_FLOAT.get(expr.op)
            if opcode is None:
                raise LoweringError(
                    f"line {expr.line}: operator {expr.op!r} on floats")
            return b.emit(opcode, [left, right])
        opcode = _BINOP_INT.get(expr.op)
        if opcode is None:
            raise LoweringError(
                f"line {expr.line}: unknown operator {expr.op!r}")
        return b.emit(opcode, [left, right])

    def _lower_unop(self, expr: ast.UnOp) -> Value:
        b = self.builder
        operand = self.lower_expr(expr.operand)
        if expr.op == "-":
            if isinstance(operand.type, FloatType):
                return b.emit("fneg", [operand])
            return b.emit("neg", [operand])
        if expr.op == "!":
            return b.cmp("eq", operand, b.const(0, operand.type))
        if expr.op == "~":
            return b.emit("not", [operand])
        raise LoweringError(f"line {expr.line}: bad unary op {expr.op!r}")

    def _lower_cast(self, expr: ast.CastExpr) -> Value:
        value = self.lower_expr(expr.operand)
        return self._coerce(value, expr.target, expr.line, explicit=True)

    def _lower_call(self, expr: ast.CallExpr) -> Value:
        b = self.builder
        if expr.func in _BUILTINS:
            args = [self.lower_expr(a) for a in expr.args]
            if expr.func in {"exp", "sqrt"}:
                args = [self._coerce(args[0], F32, expr.line)]
            return b.emit(expr.func, args)
        callee = self.pl.functions.get(expr.func)
        if callee is None:
            raise LoweringError(
                f"line {expr.line}: unknown function {expr.func!r}")
        args = self._lower_call_args(callee, expr, expr.line)
        return b.call(callee, args)

    def _lower_call_args(self, callee: Function, call: ast.CallExpr,
                         line: int) -> List[Value]:
        if len(call.args) != len(callee.args):
            raise LoweringError(
                f"line {line}: @{callee.name} expects "
                f"{len(callee.args)} args, got {len(call.args)}")
        return [self._coerce(self.lower_expr(a), p.type, line)
                for a, p in zip(call.args, callee.args)]

    # -- type plumbing ----------------------------------------------------
    def _resolve_array(self, name: str, line: int) -> GlobalArray:
        glob = self.pl.module.globals.get(name)
        if glob is None:
            raise LoweringError(f"line {line}: unknown array {name!r}")
        return glob

    def _unify(self, a: Value, b: Value,
               line: int) -> Tuple[Value, Value]:
        if a.type == b.type:
            return a, b
        if isinstance(a.type, FloatType) or isinstance(b.type, FloatType):
            target = a.type if isinstance(a.type, FloatType) else b.type
            return (self._coerce(a, target, line),
                    self._coerce(b, target, line))
        if isinstance(a.type, IntType) and isinstance(b.type, IntType):
            target = a.type if a.type.width >= b.type.width else b.type
            return (self._coerce(a, target, line),
                    self._coerce(b, target, line))
        # bool/int mixes widen to i32
        if a.type == BOOL or b.type == BOOL:
            return (self._coerce(a, I32, line), self._coerce(b, I32, line))
        raise LoweringError(
            f"line {line}: incompatible operand types {a.type} / {b.type}")

    def _coerce(self, value: Value, target: Type, line: int,
                explicit: bool = False) -> Value:
        if value.type == target:
            return value
        b = self.builder
        if isinstance(value, Constant):
            if isinstance(target, FloatType) and not isinstance(
                    value.type, (TensorType, PointerType)):
                return b.const(float(value.value), target)
            if isinstance(target, IntType) and isinstance(
                    value.type, (IntType,)):
                return b.const(int(value.value), target)
        if isinstance(target, FloatType) and isinstance(value.type, IntType):
            return b.itof(value)
        if isinstance(target, FloatType) and value.type == BOOL:
            return b.itof(value)
        if isinstance(target, IntType) and isinstance(value.type, FloatType):
            if not explicit:
                raise LoweringError(
                    f"line {line}: implicit float->int narrowing; "
                    f"use i32(...)")
            return b.ftoi(value)
        if isinstance(target, IntType) and isinstance(value.type,
                                                      (IntType, )):
            return value  # width changes are free in our word model
        if isinstance(target, IntType) and value.type == BOOL:
            return value
        if target == BOOL and isinstance(value.type, IntType):
            return b.cmp("ne", value, b.const(0, value.type))
        raise LoweringError(
            f"line {line}: cannot convert {value.type} to {target}")

    def _as_bool(self, value: Value, line: int) -> Value:
        if value.type == BOOL:
            return value
        if isinstance(value.type, IntType):
            return self.builder.cmp("ne", value,
                                    self.builder.const(0, value.type))
        raise LoweringError(f"line {line}: condition must be integer/bool")


class ProgramLowering:
    """Lowers a whole MiniC program to a software-IR module."""

    def __init__(self, program: ast.Program, name: str = "minic"):
        self.program = program
        self.module = Module(name)
        self.builder = IRBuilder(self.module)
        self.functions: Dict[str, Function] = {}

    def lower(self) -> Module:
        for arr in self.program.arrays:
            self.module.add_global(arr.name, arr.elem, arr.size)
        # Declare all signatures first so calls/spawns resolve.
        for decl in self.program.functions:
            function = Function(
                decl.name,
                [(p.name, p.type) for p in decl.params],
                decl.return_type or VOID)
            function.new_block("entry")
            self.module.add_function(function)
            self.functions[decl.name] = function
        for decl in self.program.functions:
            FunctionLowering(self, decl, self.functions[decl.name]).lower()
        return self.module


def remove_trivial_phis(function: Function) -> None:
    """Iteratively remove phis whose incomings are one value (or self)."""
    changed = True
    while changed:
        changed = False
        replacements: Dict[Value, Value] = {}
        for block in function.blocks:
            for phi in list(block.phis):
                values = {v for _b, v in phi.incomings if v is not phi}
                if len(values) == 1:
                    replacements[phi] = values.pop()
                    block.instructions.remove(phi)
                    changed = True
        if not replacements:
            break
        for block in function.blocks:
            for instr in block.instructions:
                instr.operands = [
                    _chase(replacements, op) for op in instr.operands]
                if isinstance(instr, Phi):
                    instr.incomings = [
                        (b, _chase(replacements, v))
                        for b, v in instr.incomings]


def _chase(replacements: Dict[Value, Value], value: Value) -> Value:
    while value in replacements:
        value = replacements[value]
    return value


def lower_program(program: ast.Program, name: str = "minic",
                  source_file: str = "") -> Module:
    """Lower a parsed MiniC program to a software-IR module.

    ``source_file`` (usually the ``.mc`` path) becomes the provenance
    root carried through the uIR translation.
    """
    module = ProgramLowering(program, name).lower()
    module.source_file = source_file or name
    return module
