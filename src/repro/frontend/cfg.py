"""Control-flow analyses over the software IR.

Implements the classic toolkit the translator needs: predecessor maps,
reverse post-order, iterative dominators (Cooper-Harvey-Kennedy),
natural-loop detection, and a loop-nesting forest.  Detach edges are
ordinary CFG edges for dominance purposes; loops are detected from
back edges whose header dominates the latch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import IRError
from .ir import BasicBlock, CondBranch, Function, Phi


def predecessors(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    preds: Dict[BasicBlock, List[BasicBlock]] = {
        b: [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def reverse_post_order(function: Function) -> List[BasicBlock]:
    """Blocks in reverse post-order from the entry (unreachable dropped)."""
    visited: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(function.entry)
    order.reverse()
    return order


def dominators(function: Function) -> Dict[BasicBlock, BasicBlock]:
    """Immediate-dominator map (entry maps to itself)."""
    rpo = reverse_post_order(function)
    index = {b: i for i, b in enumerate(rpo)}
    preds = predecessors(function)
    entry = function.entry
    idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in rpo}
    idom[entry] = entry

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is entry:
                continue
            candidates = [p for p in preds[block]
                          if p in index and idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom[block] is not new_idom:
                idom[block] = new_idom
                changed = True
    return {b: d for b, d in idom.items() if d is not None}


def dominates(idom: Dict[BasicBlock, BasicBlock],
              a: BasicBlock, b: BasicBlock) -> bool:
    """Does ``a`` dominate ``b`` under immediate-dominator map ``idom``?"""
    runner = b
    while True:
        if runner is a:
            return True
        parent = idom.get(runner)
        if parent is None or parent is runner:
            return runner is a
        runner = parent


class Loop:
    """A natural loop: header + body blocks (+ nested loops)."""

    def __init__(self, header: BasicBlock, latches: List[BasicBlock]):
        self.header = header
        self.latches = list(latches)
        self.blocks: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        d, cur = 1, self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_blocks(self) -> List[BasicBlock]:
        exits: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def __repr__(self) -> str:
        return (f"Loop(header={self.header.name}, "
                f"blocks={sorted(b.name for b in self.blocks)})")


def find_loops(function: Function) -> List[Loop]:
    """All natural loops, outermost first, with nesting links set."""
    idom = dominators(function)
    preds = predecessors(function)
    rpo = reverse_post_order(function)
    reachable = set(rpo)

    # Walk blocks in RPO, not set order: loop order becomes task order
    # in the circuit, which must not depend on object addresses.
    header_latches: Dict[BasicBlock, List[BasicBlock]] = {}
    for block in rpo:
        for succ in block.successors():
            if succ in reachable and dominates(idom, succ, block):
                header_latches.setdefault(succ, []).append(block)

    loops: List[Loop] = []
    for header, latches in header_latches.items():
        loop = Loop(header, latches)
        work = [latch for latch in latches if latch is not header]
        while work:
            block = work.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            work.extend(p for p in preds[block] if p in reachable)
        loops.append(loop)

    # Build the nesting forest: a loop's parent is the smallest loop
    # strictly containing its header and all of its blocks.
    loops.sort(key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if inner.header in outer.blocks and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break
    loops.sort(key=lambda l: -len(l.blocks))
    return loops


def top_level_loops(loops: List[Loop]) -> List[Loop]:
    return [l for l in loops if l.parent is None]


class InductionInfo:
    """A recognized counted loop: ``for (v = start; v < bound; v += step)``."""

    def __init__(self, phi: Phi, start, step, bound, update,
                 cond, exit_block: BasicBlock, body_entry: BasicBlock):
        self.phi = phi
        self.start = start
        self.step = step
        self.bound = bound
        self.update = update
        self.cond = cond
        self.exit_block = exit_block
        self.body_entry = body_entry

    def __repr__(self) -> str:
        return (f"InductionInfo({self.phi.name}: start={self.start.short()} "
                f"step={self.step.short()} bound={self.bound.short()})")


def recognize_induction(loop: Loop) -> Optional[InductionInfo]:
    """Match the canonical counted-loop shape emitted by the builder.

    Header: ``v = phi [pre: start] [latch: update]``, ``c = lt v, bound``,
    ``condbr c, body, exit`` where ``update = add v, step`` with the
    bound and step loop-invariant.  Returns ``None`` when the loop is
    not in this shape (it is then treated as a general loop).
    """
    header = loop.header
    term = header.terminator
    if not isinstance(term, CondBranch):
        return None
    then_b, else_b = term.then_block, term.else_block
    if then_b in loop.blocks and else_b not in loop.blocks:
        body_entry, exit_block = then_b, else_b
    elif else_b in loop.blocks and then_b not in loop.blocks:
        body_entry, exit_block = else_b, then_b
    else:
        return None
    cond = term.cond
    from .ir import Instruction  # local import to avoid cycle noise
    if not (isinstance(cond, Instruction) and cond.opcode == "lt"):
        return None
    for phi in header.phis:
        if cond.operands[0] is not phi:
            continue
        bound = cond.operands[1]
        if _defined_in_loop(bound, loop):
            continue
        start = update = None
        for block, value in phi.incomings:
            if block in loop.blocks:
                update = value
            else:
                start = value
        if start is None or update is None:
            continue
        if not (isinstance(update, Instruction) and update.opcode == "add"):
            continue
        if update.operands[0] is phi:
            step = update.operands[1]
        elif update.operands[1] is phi:
            step = update.operands[0]
        else:
            continue
        if _defined_in_loop(step, loop):
            continue
        return InductionInfo(phi, start, step, bound, update, cond,
                             exit_block, body_entry)
    return None


def _defined_in_loop(value, loop: Loop) -> bool:
    from .ir import Instruction
    return (isinstance(value, Instruction) and value.block is not None
            and value.block in loop.blocks)


def loop_of_block(loops: List[Loop],
                  block: BasicBlock) -> Optional[Loop]:
    """Innermost loop containing ``block`` (None if not in a loop)."""
    best: Optional[Loop] = None
    for loop in loops:
        if block in loop.blocks:
            if best is None or len(loop.blocks) < len(best.blocks):
                best = loop
    return best


def has_irreducible_edges(function: Function) -> bool:
    """Detect retreating edges whose target does not dominate the source."""
    idom = dominators(function)
    rpo = reverse_post_order(function)
    pos = {b: i for i, b in enumerate(rpo)}
    for block in rpo:
        for succ in block.successors():
            if succ in pos and pos[succ] <= pos[block]:
                if not dominates(idom, succ, block):
                    return True
    return False


def check_reducible(function: Function) -> None:
    if has_irreducible_edges(function):
        raise IRError(f"@{function.name}: irreducible control flow")
