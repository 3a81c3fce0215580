"""Dual-issue in-order-window CPU cycle model, ARM Cortex-A9 flavoured.

The paper compares optimized uIR accelerators against an "ARM A9 1 GHz
dual issue out-of-order processor" and attributes the accelerator's win
to (i) more ILP than a dual-issue window, (ii) compute density of
tensor units, (iii) no front-end overhead.  This model captures exactly
those mechanisms: each executed basic block is list-scheduled onto a
2-wide issue window with realistic operation latencies, memory ops pay
L1 hit latency (the working sets here fit in L1), and control flow pays
a front-end/branch cost with a 1-bit dynamic predictor.

The block schedule is computed once per static block and replayed along
the dynamic trace from the reference interpreter, so the model is both
fast and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..frontend.interp import Interpreter, Memory
from ..frontend.ir import (
    BasicBlock,
    Branch,
    Call,
    CondBranch,
    Instruction,
    Module,
    Phi,
)

#: Per-opcode result latency (cycles) on the modeled core.
CPU_LATENCY: Dict[str, int] = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "not": 1,
    "neg": 1, "abs": 1, "shl": 1, "lshr": 1, "ashr": 1,
    "mul": 3, "div": 12, "rem": 12,
    "eq": 1, "ne": 1, "lt": 1, "le": 1, "gt": 1, "ge": 1,
    "select": 1, "gep": 1,
    "fadd": 4, "fsub": 4, "fmul": 5, "fdiv": 15, "fneg": 1,
    "exp": 30, "sqrt": 17, "itof": 3, "ftoi": 3,
    "load": 4, "store": 1,
    # Tensor intrinsics execute as scalar loop bodies on the CPU
    # (NEON-free baseline, matching the paper's scalar comparison):
    # cost filled in dynamically from the tile shape.
}

ISSUE_WIDTH = 2
BRANCH_COST = 1
MISPREDICT_PENALTY = 8
CALL_OVERHEAD = 10
FREQ_MHZ = 1000.0


@dataclass
class CpuResult:
    cycles: int
    instructions: int

    @property
    def time_us(self) -> float:
        return self.cycles / FREQ_MHZ

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _tensor_cost(instr: Instruction) -> int:
    t = instr.type if instr.type.bits else instr.operands[0].type
    elems = getattr(t, "elements", 4)
    if instr.opcode == "tmul":
        # rows*cols dot products of length cols: muls + adds.
        return elems * (getattr(t, "cols", 2) * 2)
    if instr.opcode in ("tadd", "tsub", "trelu"):
        return elems
    if instr.opcode in ("tload", "tstore"):
        return elems * 2
    return elems


def _block_cost(block: BasicBlock) -> int:
    """List-schedule the block DAG at ISSUE_WIDTH; returns cycles."""
    ready_at: Dict[object, int] = {}
    issued_in_cycle: Dict[int, int] = {}
    count = 0
    for instr in block.instructions:
        if isinstance(instr, Phi):
            continue
        count += 1
        if isinstance(instr, (Branch, CondBranch)):
            continue  # charged by the front-end model
        dep_ready = 0
        for op in instr.operands:
            if isinstance(op, Instruction) and op in ready_at:
                dep_ready = max(dep_ready, ready_at[op])
        slot = dep_ready
        while issued_in_cycle.get(slot, 0) >= ISSUE_WIDTH:
            slot += 1
        issued_in_cycle[slot] = issued_in_cycle.get(slot, 0) + 1
        if instr.opcode.startswith("t") and instr.opcode in (
                "tmul", "tadd", "tsub", "trelu", "tload", "tstore"):
            latency = _tensor_cost(instr)
        else:
            latency = CPU_LATENCY.get(instr.opcode, 1)
        ready_at[instr] = slot + latency
    finish = max(ready_at.values(), default=0)
    slots = max(issued_in_cycle, default=0)
    return max(finish, slots + 1, (count + ISSUE_WIDTH - 1)
               // ISSUE_WIDTH)


class ArmA9Model:
    """Estimates cycles for a module execution on the modeled core."""

    def __init__(self, module: Module):
        self.module = module
        self._block_costs: Dict[BasicBlock, int] = {}

    def run(self, memory: Optional[Memory] = None, *args) -> CpuResult:
        mem = memory if memory is not None else Memory(self.module)
        state = {"cycles": 0, "last_block": None,
                 "predictor": {}, "instrs": 0}

        def hook(block: BasicBlock) -> None:
            cost = self._block_costs.get(block)
            if cost is None:
                cost = _block_cost(block)
                self._block_costs[block] = cost
            state["cycles"] += cost
            state["instrs"] += sum(
                1 for i in block.instructions if not isinstance(i, Phi))
            prev = state["last_block"]
            if prev is not None and isinstance(prev.terminator,
                                               CondBranch):
                predictor = state["predictor"]
                predicted = predictor.get(prev)
                state["cycles"] += BRANCH_COST
                if predicted is not None and predicted is not block:
                    state["cycles"] += MISPREDICT_PENALTY
                predictor[prev] = block
            for instr in block.instructions:
                if isinstance(instr, Call):
                    state["cycles"] += CALL_OVERHEAD
            state["last_block"] = block

        interp = Interpreter(self.module, mem, block_hook=hook)
        interp.run(*args)
        return CpuResult(cycles=state["cycles"],
                         instructions=state["instrs"])
