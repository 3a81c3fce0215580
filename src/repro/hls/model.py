"""Cycle model of a commercial-HLS-style accelerator.

This is the reproduction's stand-in for LegUp / Intel HLS (which the
paper uses for Figure 9).  It encodes exactly the execution-model
differences the paper attributes the results to:

* **Static schedule, FSM-driven.**  Innermost loops are modulo-
  scheduled (II from memory-port pressure and loop-carried
  recurrences); everything else runs as a sequential state machine.
* **Serialized nested loops.**  An outer loop iteration fully drains
  its inner loops ("HLS serializes the nested loop executions").
* **Streaming buffers.**  Affine unit-stride accesses in pipelined
  loops stream through inferred FIFOs and stop pressuring the memory
  ports (why HLS wins ~10% on FFT/DENSE in Figure 9).
* **Lower clock.**  The centralized controller costs ~20% fmax versus
  uIR's decentralized dataflow; callers combine cycles with
  ``relative_clock``.

Cycle accounting replays the reference interpreter's dynamic block
trace against statically computed per-block/per-loop costs, so data-
dependent trip counts (SPMV) are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core import oplib
from ..frontend import cfg as cfg_mod
from ..frontend.interp import Interpreter, Memory
from ..frontend.ir import (
    BasicBlock,
    Branch,
    Call,
    CondBranch,
    Constant,
    Detach,
    GlobalArray,
    Instruction,
    Module,
    Phi,
)

#: Paper observation: uIR attains ~20% higher clock than HLS.
HLS_RELATIVE_CLOCK = 1.0 / 1.2

_CALL_HANDSHAKE = 2
_FSM_TRANSITION = 1


def _op_latency(instr: Instruction) -> int:
    op = instr.opcode
    if op in ("load", "tload"):
        return 2  # BRAM read
    if op in ("store", "tstore"):
        return 1
    if op in ("tmul", "tadd", "tsub", "trelu"):
        return oplib.op_info(op, instr.type).latency
    try:
        return oplib.op_info(op, instr.type).latency
    except KeyError:
        return 1


@dataclass
class LoopInfo:
    loop: cfg_mod.Loop
    pipelined: bool
    ii: int = 1
    depth: int = 1
    streaming_ops: int = 0
    random_ops: int = 0


@dataclass
class HlsReport:
    cycles: int
    relative_clock: float = HLS_RELATIVE_CLOCK
    loop_info: Dict[str, LoopInfo] = field(default_factory=dict)

    def time_at(self, uir_fmax_mhz: float) -> float:
        """Microseconds, given the uIR design's clock as reference."""
        return self.cycles / (uir_fmax_mhz * self.relative_clock)


class _FunctionAnalysis:
    """Static per-function scheduling facts."""

    def __init__(self, function, memory_ports: int, streaming: bool):
        self.loops = cfg_mod.find_loops(function)
        self.innermost: Dict[BasicBlock, Optional[cfg_mod.Loop]] = {}
        for block in function.blocks:
            self.innermost[block] = cfg_mod.loop_of_block(self.loops,
                                                          block)
        self.loop_info: Dict[cfg_mod.Loop, LoopInfo] = {}
        for loop in self.loops:
            self.loop_info[loop] = self._analyze_loop(
                loop, memory_ports, streaming)
        self.block_cost: Dict[BasicBlock, int] = {
            b: self._schedule_block(b, memory_ports)
            for b in function.blocks}

    # -- loop analysis -----------------------------------------------------
    def _analyze_loop(self, loop: cfg_mod.Loop, ports: int,
                      streaming: bool) -> LoopInfo:
        has_inner = any(other is not loop and
                        other.header in loop.blocks
                        for other in self.loops)
        has_call = any(isinstance(i, (Call, Detach))
                       for b in loop.blocks for i in b.instructions)
        if has_inner or has_call:
            return LoopInfo(loop, pipelined=False)
        induction = cfg_mod.recognize_induction(loop)
        streaming_ops = 0
        random_ops = 0
        for block in loop.blocks:
            for instr in block.instructions:
                if instr.opcode in ("load", "store", "tload", "tstore"):
                    ptr = instr.operands[0] if instr.opcode in (
                        "load", "tload") else instr.operands[1]
                    if streaming and induction is not None and \
                            self._unit_stride(ptr, induction, loop):
                        streaming_ops += 1
                    else:
                        random_ops += 1
        ii_mem = max(1, -(-random_ops // ports))
        ii_rec = self._recurrence_ii(loop, induction)
        ii = max(1, ii_mem, ii_rec)
        depth = max(self._schedule_block(b, ports)
                    for b in loop.blocks)
        return LoopInfo(loop, pipelined=True, ii=ii, depth=depth,
                        streaming_ops=streaming_ops,
                        random_ops=random_ops)

    def _unit_stride(self, ptr, induction, loop) -> bool:
        coeff = _affine_coeff(ptr, induction.phi, loop)
        return coeff is not None and abs(coeff) <= 1

    def _recurrence_ii(self, loop, induction) -> int:
        worst = 1
        for phi in loop.header.phis:
            if induction is not None and phi is induction.phi:
                continue
            update = None
            for b, v in phi.incomings:
                if b in loop.blocks:
                    update = v
            if update is None:
                continue
            length = _chain_latency(update, phi, loop, set())
            if length is not None:
                worst = max(worst, length)
        return worst

    # -- straight-line scheduling ------------------------------------------
    def _schedule_block(self, block: BasicBlock, ports: int) -> int:
        ready: Dict[object, int] = {}
        mem_slots: Dict[int, int] = {}
        finish = 0
        for instr in block.instructions:
            if isinstance(instr, (Phi, Branch, CondBranch)):
                continue
            start = 0
            for op in instr.operands:
                if isinstance(op, Instruction) and op in ready:
                    start = max(start, ready[op])
            if instr.opcode in ("load", "store", "tload", "tstore"):
                while mem_slots.get(start, 0) >= ports:
                    start += 1
                mem_slots[start] = mem_slots.get(start, 0) + 1
            ready[instr] = start + _op_latency(instr)
            finish = max(finish, ready[instr])
        return max(finish, 1) + _FSM_TRANSITION


def _affine_coeff(value, phi, loop) -> Optional[int]:
    """Coefficient of ``phi`` in ``value`` (None when non-affine)."""
    if value is phi:
        return 1
    if isinstance(value, (Constant, GlobalArray)):
        return 0
    if isinstance(value, Instruction):
        if value.block not in loop.blocks:
            return 0  # loop-invariant
        op = value.opcode
        if op in ("add", "sub"):
            a = _affine_coeff(value.operands[0], phi, loop)
            b = _affine_coeff(value.operands[1], phi, loop)
            if a is None or b is None:
                return None
            return a + b if op == "add" else a - b
        if op == "mul":
            a, b = value.operands
            ca = _affine_coeff(a, phi, loop)
            cb = _affine_coeff(b, phi, loop)
            if ca == 0 and isinstance(a, Constant) and cb is not None:
                return cb * int(a.value)
            if cb == 0 and isinstance(b, Constant) and ca is not None:
                return ca * int(b.value)
            if ca == 0 and cb == 0:
                return 0
            return None
        if op == "gep":
            base = _affine_coeff(value.operands[0], phi, loop)
            idx = _affine_coeff(value.operands[1], phi, loop)
            if base is None or idx is None or base != 0:
                return None
            ptr_t = value.operands[0].type
            return idx * ptr_t.pointee.words
        if op == "phi":
            return None
        # Any other in-loop computation (loads, divisions, ...) is
        # not an affine function of the induction variable.
        return None
    # Arguments and anything defined outside the loop are invariant.
    return 0


def _chain_latency(value, phi, loop, seen) -> Optional[int]:
    """Latency of the def chain from ``phi`` to ``value`` in one
    iteration (the loop-carried recurrence length)."""
    if value is phi:
        return 0
    if not isinstance(value, Instruction) or value.block not in loop.blocks:
        return None
    if id(value) in seen:
        return None
    seen.add(id(value))
    best = None
    for op in value.operands:
        sub = _chain_latency(op, phi, loop, seen)
        if sub is not None:
            cand = sub + _op_latency(value)
            best = cand if best is None else max(best, cand)
    return best


class HlsModel:
    """Estimates the HLS accelerator's cycle count for one execution."""

    def __init__(self, module: Module, memory_ports: int = 2,
                 streaming: bool = True):
        self.module = module
        self.memory_ports = memory_ports
        self.streaming = streaming
        self._analyses: Dict[str, _FunctionAnalysis] = {}
        for function in module.functions.values():
            self._analyses[function.name] = _FunctionAnalysis(
                function, memory_ports, streaming)

    def run(self, memory: Optional[Memory] = None, *args) -> HlsReport:
        mem = memory if memory is not None else Memory(self.module)
        state = {"cycles": 0, "active_loop": None}
        loop_info_out: Dict[str, LoopInfo] = {}

        def hook(block: BasicBlock) -> None:
            analysis = self._analyses[block.function.name]
            loop = analysis.innermost[block]
            info = analysis.loop_info.get(loop) if loop else None
            if info is not None and info.pipelined:
                key = f"{block.function.name}:{loop.header.name}"
                loop_info_out[key] = info
                if block is loop.header:
                    if state["active_loop"] is not loop:
                        # Pipeline fill on loop entry.
                        state["cycles"] += info.depth
                        state["active_loop"] = loop
                    state["cycles"] += info.ii
                # Body blocks of a pipelined loop ride the II charge.
                return
            state["active_loop"] = None
            state["cycles"] += analysis.block_cost[block]
            for instr in block.instructions:
                if isinstance(instr, Call):
                    state["cycles"] += _CALL_HANDSHAKE

        interp = Interpreter(self.module, mem, block_hook=hook)
        interp.run(*args)
        return HlsReport(cycles=state["cycles"],
                         loop_info=loop_info_out)


def estimate_hls(module: Module, memory: Optional[Memory],
                 *args, **kwargs) -> HlsReport:
    return HlsModel(module, **kwargs).run(memory, *args)
