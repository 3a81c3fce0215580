"""Translation from software IR to uIR (paper Algorithm 1).

Stage 1 walks the program and carves it into *regions*, each of which
becomes a uIR task block:

* one ``func`` region per reachable function (its straight-line,
  forward-branching spine),
* one ``loop`` region per natural loop (every nested loop is its own
  asynchronously-scheduled task, section 3.5),
* one ``detach`` region per Tapir detach (a Cilk-spawned body).

Stage 2 lowers each region's hyperblock into a pipelined dataflow:
forward branches become dataflow predication + selects, memory ops
become load/store transit nodes behind a junction, child regions appear
as call/spawn interface nodes, and counted loops get a loop-control
sequencer with phi nodes for loop-carried values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import TranslationError
from ..types import BOOL, I32, VOID, Type
from ..core.circuit import AcceleratorCircuit, TaskBlock, TaskEdge
from ..core.graph import Port
from ..core.provenance import SourceLoc
from ..core.nodes import (
    CallNode,
    ComputeNode,
    ConstNode,
    LiveIn,
    LiveOut,
    LoadNode,
    LoopControl,
    PhiNode,
    SelectNode,
    SpawnNode,
    StoreNode,
    TensorComputeNode,
)
from ..core.structures import Cache, Junction
from . import cfg as cfg_mod
from .ir import (
    Argument,
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

_BIG_BOUND = 1 << 30  # "infinite" bound for conditional loops

_TENSOR_OPCODES = {"tmul", "tadd", "tsub", "trelu"}


# ---------------------------------------------------------------------------
# Array access summaries (for memory-dependence ordering)
# ---------------------------------------------------------------------------

def trace_array(value: Value) -> Optional[str]:
    """Follow gep chains back to the defining global array (points-to)."""
    seen = 0
    while seen < 64:
        if isinstance(value, GlobalArray):
            return value.name
        if isinstance(value, Instruction) and value.opcode == "gep":
            value = value.operands[0]
            seen += 1
            continue
        return None
    return None


def function_access_sets(module: Module) -> Dict[str, Tuple[Set, Set]]:
    """Per-function (reads, writes) array-name sets, transitively closed
    over the call graph (fixpoint handles recursion).  ``None`` inside a
    set is the unknown array (conflicts with everything)."""
    local: Dict[str, Tuple[Set, Set]] = {}
    calls: Dict[str, Set[str]] = {}
    for fn in module.functions.values():
        reads: Set = set()
        writes: Set = set()
        callees: Set[str] = set()
        for instr in fn.instructions():
            if instr.opcode in ("load", "tload"):
                reads.add(trace_array(instr.operands[0]))
            elif instr.opcode in ("store", "tstore"):
                writes.add(trace_array(instr.operands[1]))
            elif isinstance(instr, Call):
                callees.add(instr.callee.name)
        local[fn.name] = (reads, writes)
        calls[fn.name] = callees
    summary = {name: (set(r), set(w)) for name, (r, w) in local.items()}
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            r, w = summary[name]
            for callee in callees:
                cr, cw = summary[callee]
                if not cr <= r or not cw <= w:
                    r |= cr
                    w |= cw
                    changed = True
    return summary


def _self_conflict(access: Tuple[Set, Set]) -> bool:
    """Must successive invocations of one task be serialized?

    Only a read/write overlap (in-place update, e.g. an FFT stage)
    forces it: write/write across invocations touches disjoint elements
    under the race-freedom assumption (DESIGN.md)."""
    reads, writes = access
    if None in writes and (reads or writes):
        return True
    if None in reads and writes:
        return True
    return bool(reads & writes)


def _conflict(a: Tuple[Set, Set], b: Tuple[Set, Set]) -> bool:
    ar, aw = a
    br, bw = b
    if None in aw and (br or bw):
        return True
    if None in bw and (ar or aw):
        return True
    if (None in ar and bw) or (None in br and aw):
        return True
    return bool(aw & (br | bw)) or bool(ar & bw)


# ---------------------------------------------------------------------------
# Stage 1: regions
# ---------------------------------------------------------------------------

class Region:
    """A set of basic blocks that becomes one uIR task block."""

    def __init__(self, kind: str, name: str, raw_blocks: Set[BasicBlock]):
        self.kind = kind                  # 'func' | 'loop' | 'detach'
        self.name = name
        self.raw_blocks = raw_blocks      # including children's blocks
        self.blocks: List[BasicBlock] = []  # own blocks, topo order
        self.parent: Optional["Region"] = None
        self.children: List["Region"] = []
        self.loop: Optional[cfg_mod.Loop] = None
        self.induction: Optional[cfg_mod.InductionInfo] = None
        self.detach: Optional[Detach] = None
        self.function: Optional[Function] = None
        # Filled during translation:
        self.live_ins: List[Value] = []
        self.live_outs: List[Value] = []
        self.task: Optional[TaskBlock] = None
        self.reads: Set = set()
        self.writes: Set = set()

    def __repr__(self) -> str:
        return (f"Region({self.kind} {self.name}, "
                f"{len(self.blocks)} own blocks)")


def _detach_region_blocks(detach: Detach) -> Set[BasicBlock]:
    """Blocks of the detached body (stop at the matching reattach)."""
    blocks: Set[BasicBlock] = set()
    work = [detach.body]
    while work:
        block = work.pop()
        if block in blocks:
            continue
        blocks.add(block)
        term = block.terminator
        if isinstance(term, Reattach):
            continue
        work.extend(block.successors())
    return blocks


def build_regions(function: Function,
                  prefix: str) -> List[Region]:
    """Carve ``function`` into nested regions (children before parents
    in the returned list)."""
    loops = cfg_mod.find_loops(function)
    rpo = cfg_mod.reverse_post_order(function)
    rpo_pos = {b: i for i, b in enumerate(rpo)}

    regions: List[Region] = []
    func_region = Region("func", prefix, set(rpo))
    func_region.function = function
    regions.append(func_region)

    for i, loop in enumerate(loops):
        name = f"{prefix}_loop_{loop.header.name.replace('.', '_')}"
        region = Region("loop", name, set(loop.blocks))
        region.loop = loop
        region.function = function
        region.induction = cfg_mod.recognize_induction(loop)
        regions.append(region)

    detach_count = 0
    for block in rpo:
        term = block.terminator
        if isinstance(term, Detach):
            name = f"{prefix}_task{detach_count}"
            detach_count += 1
            region = Region("detach", name, _detach_region_blocks(term))
            region.detach = term
            region.function = function
            regions.append(region)

    # Nesting: parent = smallest strict superset of raw blocks.
    for region in regions:
        best: Optional[Region] = None
        for other in regions:
            if other is region:
                continue
            if region.raw_blocks < other.raw_blocks or (
                    region.raw_blocks == other.raw_blocks
                    and _inner_of_equal(region, other)):
                if best is None or len(other.raw_blocks) < \
                        len(best.raw_blocks):
                    best = other
        region.parent = best
        if best is not None:
            best.children.append(region)

    # Own blocks = raw minus children's raw, in RPO order.
    for region in regions:
        child_blocks: Set[BasicBlock] = set()
        for child in region.children:
            child_blocks |= child.raw_blocks
        own = [b for b in rpo
               if b in region.raw_blocks and b not in child_blocks]
        region.blocks = own

    # Children before parents (innermost first).
    regions.sort(key=lambda r: len(r.raw_blocks))
    return regions


def _inner_of_equal(a: Region, b: Region) -> bool:
    """Tie-break when a loop and a detach own the same raw block set:
    the detach body nests inside the loop."""
    return a.kind == "detach" and b.kind == "loop"


# ---------------------------------------------------------------------------
# Stage 2: region -> dataflow
# ---------------------------------------------------------------------------

class RegionTranslator:
    """Builds one task block's dataflow from its region."""

    def __init__(self, mt: "ModuleTranslator", region: Region):
        self.mt = mt
        self.region = region
        kind = "loop" if region.kind == "loop" else "func"
        if region.kind == "func" and region.function.name == \
                mt.module.main.name:
            kind = "func"
        self.task = TaskBlock(region.name, kind)
        region.task = self.task
        self.df = self.task.dataflow
        self.block_set = set(region.blocks)
        self.value_map: Dict[Value, Port] = {}
        self.const_cache: Dict[Tuple, ConstNode] = {}
        self.livein_ports: Dict[Value, Port] = {}
        self.block_pred: Dict[BasicBlock, Optional[Port]] = {}
        self.edge_pred: Dict[Tuple[BasicBlock, BasicBlock],
                             Optional[Port]] = {}
        # Provenance of conditional predicates (keyed by predicate port
        # identity), for complementary-pair simplification at merges:
        # id(port) -> (parent_pred, cond_port, polarity).
        self.pred_provenance: Dict[int,
                                   Tuple[Optional[Port], Port, bool]] = {}
        self.loopctl: Optional[LoopControl] = None
        self.phi_nodes: Dict[Phi, PhiNode] = {}
        self.skip: Set[Instruction] = set()
        self.junction: Optional[Junction] = None
        self.returns: List[Tuple[BasicBlock, Optional[Value]]] = []
        # Effect sites in program order: (node, (reads, writes)).
        self.effect_sites: List[Tuple[object, Tuple[Set, Set]]] = []
        self._name_counter = 0
        # Loops whose header is a successor of this region's blocks.
        self.child_loop_by_header: Dict[BasicBlock, Region] = {}
        for child in region.children:
            if child.kind == "loop":
                self.child_loop_by_header[child.loop.header] = child
        self.child_detach_by_instr: Dict[Detach, Region] = {}
        for child in region.children:
            if child.kind == "detach":
                self.child_detach_by_instr[child.detach] = child

    # ------------------------------------------------------------------
    def fresh(self, base: str) -> str:
        self._name_counter += 1
        return f"{base}_{self._name_counter}"

    # -- provenance -----------------------------------------------------
    def _stamp(self, node, instr: Optional[Instruction] = None):
        """Record where ``node`` came from: source file, the producing
        instruction's line, and the enclosing task as context."""
        line = getattr(instr, "line", 0) if instr is not None else 0
        node.provenance = (SourceLoc(self.mt.source_file, line,
                                     self.region.name),)
        return node

    def _region_line(self, region: Region) -> int:
        """Representative source line of a child region (its header's
        terminator for loops, the detach instruction for tasks)."""
        if region.kind == "loop" and region.loop is not None:
            term = region.loop.header.terminator
            return getattr(term, "line", 0) if term is not None else 0
        if region.detach is not None:
            return getattr(region.detach, "line", 0)
        return 0

    # -- live-in computation --------------------------------------------
    def compute_live_ins(self) -> List[Value]:
        defined: Set[Value] = set()
        for block in self.region.blocks:
            defined.update(block.instructions)
        produced_by_children: Set[Value] = set()
        for child in self.region.children:
            produced_by_children.update(child.live_outs)

        order: List[Value] = []
        seen: Set[Value] = set()

        # Function tasks have a fixed ABI: live-ins are the function
        # arguments, in signature order (call sites and the host wire
        # them positionally).
        if self.region.kind == "func" and self.region.function is not None:
            for arg in self.region.function.args:
                order.append(arg)
                seen.add(arg)

        def need(value: Value) -> None:
            if value in seen:
                return
            seen.add(value)
            if isinstance(value, (Constant, GlobalArray)):
                return
            if value in defined or value in produced_by_children:
                return
            if isinstance(value, (Argument, Instruction)):
                order.append(value)

        for block in self.region.blocks:
            for instr in block.instructions:
                for op in instr.operands:
                    need(op)
        for child in self.region.children:
            for value in child.live_ins:
                need(value)
        return order

    # -- main entry ----------------------------------------------------------
    def translate(self) -> None:
        region = self.region
        self.mt.circuit.add_task(self.task)
        region.live_ins = self.compute_live_ins()
        if region.kind == "func" and region.function is not None and \
                len(region.live_ins) > len(region.function.args):
            extra = [v.short() for v in
                     region.live_ins[len(region.function.args):]]
            raise TranslationError(
                f"{region.name}: values {extra} defined inside a child "
                f"region escape into the function body (early return "
                f"from a loop is not supported)")
        self.task.live_in_types = [v.type for v in region.live_ins]
        for i, value in enumerate(region.live_ins):
            node = self.df.add(LiveIn(i, value.type,
                                      name=f"livein_{_vname(value, i)}"))
            self.livein_ports[value] = node.out
            self.value_map[value] = node.out

        if region.kind == "loop":
            self._setup_loop_control()

        # Walk blocks in region order: predicates, phis, instructions.
        entry = region.blocks[0]
        self.block_pred[entry] = self._entry_predicate()
        for block in region.blocks:
            if block not in self.block_pred:
                self.block_pred[block] = self._merge_block_pred(block)
            if block is not entry or region.kind != "loop":
                self._convert_merge_phis(block)
            self._convert_instructions(block)
            self._compute_edge_preds(block)

        if region.kind == "loop":
            self._finish_loop()
        else:
            self._finish_func()

        self._pace_unlocked_effects()
        self._prune_dead_nodes()

        # Every node carries provenance: synthesized plumbing (consts,
        # predicates, selects, live-ins/outs) maps to the enclosing
        # task with no specific line.
        for node in self.df.nodes:
            if not node.provenance:
                self._stamp(node)

    def _prune_dead_nodes(self) -> None:
        """Drop pure nodes whose outputs nobody consumes (e.g. inverted
        predicates built for edges that later simplified away)."""
        df = self.df
        changed = True
        prunable = ("compute", "select", "const", "tensor", "fused")
        while changed:
            changed = False
            for node in list(df.nodes):
                if node.kind not in prunable:
                    continue
                if any(port.outgoing for port in node.outputs):
                    continue
                df.remove(node)
                changed = True

    # -- loop scaffolding ------------------------------------------------
    def _setup_loop_control(self) -> None:
        region = self.region
        loop = region.loop
        ind = region.induction
        # Loops must exit only through the header (no break / early
        # return); multiple exit edges cannot lower to one loop-control
        # sequencer.
        for block in loop.blocks:
            for succ in block.successors():
                if succ not in loop.blocks and block is not loop.header:
                    raise TranslationError(
                        f"{region.name}: loop exits from {block.name} "
                        f"(early return/break is not supported)")
        ctl = LoopControl(name="loopctl",
                          conditional=ind is None)
        self.df.add(ctl)
        self._stamp(ctl, loop.header.terminator)
        self.loopctl = ctl
        if ind is not None:
            self._connect(self.resolve(ind.start), ctl.start)
            self._connect(self.resolve(ind.bound), ctl.bound)
            self._connect(self.resolve(ind.step), ctl.step)
            self.value_map[ind.phi] = ctl.index
            self.skip.add(ind.cond)
            if not self._has_other_uses(ind.update, {ind.phi, ind.cond}):
                self.skip.add(ind.update)
        else:
            self._connect(self.const_port(0, I32), ctl.start)
            self._connect(self.const_port(_BIG_BOUND, I32), ctl.bound)
            self._connect(self.const_port(1, I32), ctl.step)

        header = loop.header
        latch_blocks = set(loop.latches)
        for phi in header.phis:
            if ind is not None and phi is ind.phi:
                continue
            node = PhiNode(phi.type, name=self.fresh(f"phi_{phi.name}"))
            self.df.add(node)
            self.phi_nodes[phi] = node
            self.value_map[phi] = node.out
            init_value = None
            for b, v in phi.incomings:
                if b not in loop.blocks:
                    init_value = v
            if init_value is None:
                raise TranslationError(
                    f"{region.name}: phi {phi.name} has no init value")
            self._connect(self.resolve(init_value), node.init)
        # Detect loop-carried memory accumulators (load+store through
        # the same address producer): serialize iterations.
        if self._has_carried_memory_dependence():
            ctl.max_in_flight = 1

    def _has_other_uses(self, instr: Instruction,
                        allowed: Set[Instruction]) -> bool:
        for block in self.region.blocks:
            for user in block.instructions:
                if user in allowed or user is instr:
                    continue
                if instr in user.operands:
                    return True
                if isinstance(user, CondBranch) and user.cond is instr:
                    return True
        # Uses in child regions (live-in there)?
        for child in self.region.children:
            if instr in child.live_ins:
                return True
        return False

    def _has_carried_memory_dependence(self) -> bool:
        """Detect read-modify-write accumulators (``o[p] += ...``): a
        load and store through the same *loop-invariant* address —
        every iteration touches that one location, so iterations must
        not overlap.  Same-address pairs whose index varies with the
        iteration (e.g. an FFT butterfly's ``re[lo]``) are a
        within-iteration dependence (handled by ordering edges), and
        loads/stores at distinct indices are iteration-independent
        (Cilk-style race freedom, see DESIGN.md)."""
        def addr_key(ptr: Value):
            if isinstance(ptr, Instruction) and ptr.opcode == "gep":
                idx = ptr.operands[1]
                if isinstance(idx, Constant):
                    return (trace_array(ptr), "const", idx.value)
                if self._loop_variant(idx):
                    return None
                return (trace_array(ptr), "val", id(idx))
            if self._loop_variant(ptr):
                return None
            return ("*", "val", id(ptr))

        load_keys = set()
        for block in self.region.blocks:
            for instr in block.instructions:
                if instr.opcode in ("load", "tload"):
                    key = addr_key(instr.operands[0])
                    if key is not None:
                        load_keys.add(key)
        for block in self.region.blocks:
            for instr in block.instructions:
                if instr.opcode in ("store", "tstore") and \
                        addr_key(instr.operands[1]) in load_keys:
                    return True
        return False

    def _loop_variant(self, value: Value, depth: int = 0) -> bool:
        """Does ``value`` (transitively) depend on a header phi?"""
        if depth > 32:
            return True  # be conservative on very deep expressions
        if not isinstance(value, Instruction):
            return False
        block = value.block
        if block is None or block not in self.region.loop.blocks:
            return False
        if isinstance(value, Phi) and block is self.region.loop.header:
            return True
        return any(self._loop_variant(op, depth + 1)
                   for op in value.operands)

    # -- predicates -------------------------------------------------------
    def _entry_predicate(self) -> Optional[Port]:
        return None  # unconditional; loop pacing handled separately

    def _merge_block_pred(self, block: BasicBlock) -> Optional[Port]:
        edges = self._incoming_region_edges(block)
        incoming = [pred for _src, pred in edges]
        if not incoming:
            return None
        if any(p is None for p in incoming):
            return None
        # Complementary pair (then/else of one branch rejoining): the
        # merge is reached whenever the parent was.
        if len(edges) == 2:
            infos = [self.pred_provenance.get(id(p)) for p in incoming]
            if all(infos) and infos[0][1] is infos[1][1] \
                    and infos[0][0] is infos[1][0] \
                    and infos[0][2] != infos[1][2]:
                return infos[0][0]
        acc = incoming[0]
        for p in incoming[1:]:
            acc = self._make_logic("or", acc, p)
        return acc

    def _incoming_region_edges(self, block: BasicBlock):
        """Region-internal edges into ``block``, with child-loop exits
        redirected to the loop's entry edge predicate."""
        result = []
        for (src, dst), pred in self.edge_pred.items():
            if dst is block:
                result.append((src, pred))
        return result

    def _compute_edge_preds(self, block: BasicBlock) -> None:
        term = block.terminator
        pred = self.block_pred.get(block)
        if isinstance(term, Branch):
            self._record_edge(block, term.target, pred)
        elif isinstance(term, CondBranch):
            region = self.region
            if region.kind == "loop" and block is region.loop.header \
                    and region.induction is not None:
                # Counted-loop header: loop control already gates
                # iterations; the body edge is unconditional.
                body = region.induction.body_entry
                self._record_edge(block, body, None)
                return
            cond_port = self.resolve(term.cond)
            then_pred = self._make_and(pred, cond_port)
            else_pred = self._make_and(pred, self._make_not(cond_port))
            self.pred_provenance[id(then_pred)] = (pred, cond_port, True)
            self.pred_provenance[id(else_pred)] = (pred, cond_port, False)
            self._record_edge(block, term.then_block, then_pred)
            self._record_edge(block, term.else_block, else_pred)
        elif isinstance(term, Detach):
            self._record_edge(block, term.cont, pred)
        elif isinstance(term, Reattach):
            self._record_edge(block, term.cont, pred)

    def _record_edge(self, src: BasicBlock, dst: BasicBlock,
                     pred: Optional[Port]) -> None:
        region = self.region
        if region.kind == "loop" and dst is region.loop.header:
            return  # back edge: handled by loop control
        if dst in self.child_loop_by_header:
            child = self.child_loop_by_header[dst]
            call = self._emit_loop_call(child, pred)
            # The loop behaves as a pass-through to its exits.
            for exit_block in child.loop.exit_blocks():
                if exit_block in self.block_set:
                    self.edge_pred[(src, exit_block)] = pred
            return
        if dst not in self.block_set:
            return
        self.edge_pred[(src, dst)] = pred

    def _make_and(self, a: Optional[Port],
                  b: Optional[Port]) -> Optional[Port]:
        if a is None:
            return b
        if b is None:
            return a
        return self._make_logic("and", a, b)

    def _make_not(self, a: Port) -> Port:
        node = ComputeNode("xor", BOOL, arity=2,
                           name=self.fresh("not"))
        self.df.add(node)
        self._connect(a, node.in_ports[0])
        self._connect(self.const_port(1, BOOL), node.in_ports[1])
        return node.out

    def _make_logic(self, op: str, a: Port, b: Port) -> Port:
        node = ComputeNode(op, BOOL, arity=2, name=self.fresh(op))
        self.df.add(node)
        self._connect(a, node.in_ports[0])
        self._connect(b, node.in_ports[1])
        return node.out

    # -- merge phis (forward control flow) ---------------------------------
    def _convert_merge_phis(self, block: BasicBlock) -> None:
        phis = block.phis
        if not phis:
            return
        edges = self._incoming_region_edges(block)
        if not edges:
            raise TranslationError(
                f"{self.region.name}: merge block {block.name} with phis "
                f"has no region-internal predecessors")
        for phi in phis:
            acc: Optional[Port] = None
            for src, pred in reversed(list(edges)):
                value = None
                for b, v in phi.incomings:
                    if b is src or self._edge_covers(src, b):
                        value = v
                        break
                if value is None:
                    continue
                port = self.resolve(value)
                if acc is None:
                    acc = port
                elif pred is None:
                    acc = port
                else:
                    sel = SelectNode(phi.type,
                                     name=self.fresh(f"sel_{phi.name}"))
                    self.df.add(sel)
                    self._connect(pred, sel.cond)
                    self._connect(port, sel.a)
                    self._connect(acc, sel.b)
                    acc = sel.out
            if acc is None:
                raise TranslationError(
                    f"{self.region.name}: could not build select tree "
                    f"for phi {phi.name}")
            self.value_map[phi] = acc

    def _edge_covers(self, region_src: BasicBlock,
                     phi_block: BasicBlock) -> bool:
        """A phi incoming block may be inside a child loop whose exit
        reaches this merge; the region edge source then stands for it."""
        child = None
        for c in self.region.children:
            if c.kind == "loop" and phi_block in c.raw_blocks:
                child = c
                break
        return child is not None and region_src not in self.block_set

    # -- instruction conversion ------------------------------------------
    def _convert_instructions(self, block: BasicBlock) -> None:
        pred = self.block_pred.get(block)
        for instr in block.instructions:
            if isinstance(instr, Phi) or instr in self.skip:
                continue
            if isinstance(instr, (Branch, CondBranch)):
                continue
            if isinstance(instr, Return):
                self.returns.append((block, instr.value))
                continue
            if isinstance(instr, Sync):
                self._emit_sync(instr)
                continue
            if isinstance(instr, Reattach):
                continue
            if isinstance(instr, Detach):
                child = self.child_detach_by_instr.get(instr)
                if child is None:
                    raise TranslationError(
                        f"{self.region.name}: detach without child region")
                self._emit_spawn(child, pred)
                continue
            if isinstance(instr, Call):
                self._emit_function_call(instr, pred)
                continue
            if instr.opcode in ("load", "tload"):
                self._emit_load(instr, pred)
                continue
            if instr.opcode in ("store", "tstore"):
                self._emit_store(instr, pred)
                continue
            self._emit_compute(instr)

    def _emit_compute(self, instr: Instruction) -> None:
        operand_types = [op.type for op in instr.operands]
        if instr.opcode == "select":
            node = SelectNode(instr.type, name=self.fresh(instr.name
                                                          or "select"))
            self.df.add(node)
            self._stamp(node, instr)
            self._connect(self.resolve(instr.operands[0]), node.cond)
            self._connect(self.resolve(instr.operands[1]), node.a)
            self._connect(self.resolve(instr.operands[2]), node.b)
            self.value_map[instr] = node.out
            return
        if instr.opcode in _TENSOR_OPCODES:
            cls = TensorComputeNode
        else:
            cls = ComputeNode
        if instr.opcode == "gep":
            node = ComputeNode("gep", I32, arity=2,
                               name=self.fresh(instr.name or "gep"),
                               operand_types=[I32, I32])
            node.gep_scale = instr.operands[0].type.pointee.words
        else:
            node = cls(instr.opcode, instr.type,
                       arity=len(instr.operands),
                       name=self.fresh(instr.name or instr.opcode),
                       operand_types=operand_types)
        self.df.add(node)
        self._stamp(node, instr)
        for op, port in zip(instr.operands, node.in_ports):
            self._connect(self.resolve(op), port)
        self.value_map[instr] = node.out

    def _emit_load(self, instr: Instruction, pred: Optional[Port]) -> None:
        node = LoadNode(instr.type, name=self.fresh(instr.name or "load"))
        self.df.add(node)
        self._stamp(node, instr)
        node.array = trace_array(instr.operands[0])
        self._connect(self.resolve(instr.operands[0]), node.addr)
        if pred is not None:
            self._connect(pred, node.enable_predicate())
        self._attach_memory(node)
        self.value_map[instr] = node.out
        self._order_effect(node, ({node.array}, set()))

    def _emit_store(self, instr: Instruction, pred: Optional[Port]) -> None:
        value, ptr = instr.operands
        node = StoreNode(value.type, name=self.fresh("store"))
        self.df.add(node)
        self._stamp(node, instr)
        node.array = trace_array(ptr)
        self._connect(self.resolve(ptr), node.addr)
        self._connect(self.resolve(value), node.data)
        if pred is not None:
            self._connect(pred, node.enable_predicate())
        self._attach_memory(node)
        self._order_effect(node, (set(), {node.array}))

    def _emit_function_call(self, instr: Call,
                            pred: Optional[Port]) -> None:
        callee_region = self.mt.func_regions[instr.callee.name]
        callee_name = callee_region.name
        arg_types = [a.type for a in instr.operands]
        access = self.mt.func_access[instr.callee.name]
        if instr.spawned:
            node = SpawnNode(callee_name, arg_types,
                             name=self.fresh(f"spawn_{instr.callee.name}"))
            self.df.add(node)
            self._stamp(node, instr)
            for op, port in zip(instr.operands, node.arg_ports):
                self._connect(self.resolve(op), port)
            if pred is not None:
                self._connect(pred, node.enable_predicate())
            self.mt.add_task_edge(self.task.name, callee_name, "spawn")
            self._order_effect(node, access)
            return
        ret_types = ([] if instr.callee.return_type == VOID
                     else [instr.callee.return_type])
        node = CallNode(callee_name, arg_types, ret_types,
                        name=self.fresh(f"call_{instr.callee.name}"))
        self.df.add(node)
        self._stamp(node, instr)
        for op, port in zip(instr.operands, node.arg_ports):
            self._connect(self.resolve(op), port)
        if pred is not None:
            self._connect(pred, node.enable_predicate())
        if node.ret_ports:
            self.value_map[instr] = node.ret_ports[0]
        self.mt.add_task_edge(self.task.name, callee_name, "call")
        if _self_conflict(access):
            node.serialize = True
        self._order_effect(node, access)

    def _emit_loop_call(self, child: Region,
                        pred: Optional[Port]) -> CallNode:
        arg_types = [v.type for v in child.live_ins]
        ret_types = [v.type for v in child.live_outs]
        node = CallNode(child.name, arg_types, ret_types,
                        name=self.fresh(f"call_{child.name}"))
        self.df.add(node)
        node.provenance = (SourceLoc(self.mt.source_file,
                                     self._region_line(child),
                                     self.region.name),)
        for value, port in zip(child.live_ins, node.arg_ports):
            self._connect(self.resolve(value), port)
        if pred is not None:
            self._connect(pred, node.enable_predicate())
        for value, port in zip(child.live_outs, node.ret_ports):
            self.value_map[value] = port
        self.mt.add_task_edge(self.task.name, child.name, "call")
        access = (child.reads, child.writes)
        if _self_conflict(access) and self.region.kind == "loop":
            # In-place child (e.g. an FFT stage): its invocations from
            # successive outer iterations must not overlap.
            node.serialize = True
        self._order_effect(node, access)
        return node

    def _emit_sync(self, instr: Optional[Instruction] = None) -> None:
        if self.region.kind == "loop":
            raise TranslationError(
                f"{self.region.name}: sync inside a loop body is not "
                f"supported (hoist the parallel region)")
        from ..core.nodes import SyncNode
        node = SyncNode(name=self.fresh("sync"))
        self.df.add(node)
        self._stamp(node, instr)
        # A sync is a full barrier: order it against every prior effect
        # and let every later effect order against it.
        self._order_effect(node, ({None}, {None}))

    def _emit_spawn(self, child: Region, pred: Optional[Port]) -> None:
        arg_types = [v.type for v in child.live_ins]
        node = SpawnNode(child.name, arg_types,
                         name=self.fresh(f"spawn_{child.name}"))
        self.df.add(node)
        node.provenance = (SourceLoc(self.mt.source_file,
                                     self._region_line(child),
                                     self.region.name),)
        for value, port in zip(child.live_ins, node.arg_ports):
            self._connect(self.resolve(value), port)
        if pred is not None:
            self._connect(pred, node.enable_predicate())
        self.mt.add_task_edge(self.task.name, child.name, "spawn")
        self._order_effect(node, (child.reads, child.writes))

    # -- memory-dependence ordering ------------------------------------------
    def _order_effect(self, node, access: Tuple[Set, Set]) -> None:
        self.region.reads |= access[0]
        self.region.writes |= access[1]
        if not hasattr(node, "enable_order_in"):
            self.effect_sites.append((node, access))
            return
        for prior, prior_access in self.effect_sites:
            if prior.kind == "spawn" and node.kind == "spawn":
                continue  # spawns are concurrent by definition (Cilk)
            if not _conflict(prior_access, access):
                continue
            done_port = self._done_port_of(prior)
            if done_port is None:
                continue
            target = node.enable_order_in()
            if target.incoming is not None:
                existing = target.incoming.src
                self.df.disconnect(target.incoming)
                merged = self._make_logic("and", existing, done_port)
                self._connect(merged, target)
            else:
                self._connect(done_port, target)
        self.effect_sites.append((node, access))

    @staticmethod
    def _done_port_of(node) -> Optional[Port]:
        if node.kind in ("load", "store"):
            return node.done
        if node.kind == "call":
            return node.order_out
        if node.kind == "spawn":
            # Spawn completion is only observable through sync (or the
            # parent task's completion); ordering after its *issue* is
            # all the fire-and-forget interface offers.  Cilk semantics
            # require a sync before reading spawned results anyway.
            return node.issued
        if node.kind == "sync":
            return node.done
        return None

    def _attach_memory(self, node) -> None:
        if self.junction is None:
            self.junction = Junction(
                f"{self.task.name}_junc", self.mt.cache,
                issue_width=self.mt.junction_issue_width)
            self.task.add_junction(self.junction)
        self.junction.attach(node)
        self.task.reindex_junctions()

    # -- finishing --------------------------------------------------------
    def _finish_loop(self) -> None:
        region = self.region
        loop = region.loop
        ind = region.induction
        latch_set = set(loop.latches)

        # Back edges for carried phis.
        for phi, node in self.phi_nodes.items():
            back_value = None
            for b, v in phi.incomings:
                if b in loop.blocks:
                    back_value = v
            if back_value is None:
                raise TranslationError(
                    f"{region.name}: phi {phi.name} lacks a back value")
            self._connect(self.resolve(back_value), node.back)

        # Conditional loops: feed the continue condition.
        if ind is None:
            header_term = loop.header.terminator
            if not isinstance(header_term, CondBranch):
                raise TranslationError(
                    f"{region.name}: general loop header must end in a "
                    f"conditional branch")
            cond_port = self.resolve(header_term.cond)
            if header_term.else_block in loop.blocks and \
                    header_term.then_block not in loop.blocks:
                cond_port = self._make_not(cond_port)
            self._connect(cond_port, self.loopctl.cont)

        # Live-outs: carried values observed after the loop.
        live_outs: List[Value] = []
        for phi in loop.header.phis:
            if self._used_outside(phi):
                live_outs.append(phi)
        region.live_outs = live_outs
        self.task.live_out_types = [v.type for v in live_outs]
        for i, value in enumerate(live_outs):
            out_node = self.df.add(LiveOut(i, value.type,
                                           name=f"liveout{i}"))
            if ind is not None and value is ind.phi:
                self._connect(self.loopctl.final, out_node.inp)
            else:
                src = self.phi_nodes[value].final
                self._connect(src, out_node.inp)

        # Returns inside loops are not supported (the paper extracts
        # loops as self-scheduling tasks; early returns stay outside).
        if self.returns:
            raise TranslationError(
                f"{region.name}: return inside a loop body is not "
                f"supported")

    def _used_outside(self, value: Instruction) -> bool:
        region_blocks = self.region.raw_blocks
        function = self.region.function
        for block in function.blocks:
            if block in region_blocks:
                continue
            for instr in block.instructions:
                if value in instr.operands:
                    return True
                if isinstance(instr, CondBranch) and instr.cond is value:
                    return True
        return False

    def _finish_func(self) -> None:
        region = self.region
        function = region.function
        if function is not None and function.return_type != VOID \
                and region.kind == "func":
            acc: Optional[Port] = None
            for block, value in reversed(self.returns):
                if value is None:
                    raise TranslationError(
                        f"{region.name}: missing return value")
                port = self.resolve(value)
                pred = self.block_pred.get(block)
                if acc is None or pred is None:
                    acc = port
                else:
                    sel = SelectNode(function.return_type,
                                     name=self.fresh("retsel"))
                    self.df.add(sel)
                    self._connect(pred, sel.cond)
                    self._connect(port, sel.a)
                    self._connect(acc, sel.b)
                    acc = sel.out
            if acc is None:
                raise TranslationError(
                    f"{region.name}: function returns a value but has "
                    f"no return sites")
            region.live_outs = [None]  # placeholder: single return value
            self.task.live_out_types = [function.return_type]
            node = self.df.add(LiveOut(0, function.return_type,
                                       name="liveout0"))
            self._connect(acc, node.inp)
        else:
            region.live_outs = []
            self.task.live_out_types = []

    # -- pacing (iteration locking) -------------------------------------------
    def _pace_unlocked_effects(self) -> None:
        if self.task.kind != "loop":
            # Func tasks: every connection carries exactly one token
            # per invocation, which paces everything — except an
            # effect node with NO inputs at all (e.g. a call to a
            # zero-argument child).  Give it a one-shot trigger.
            for node in list(self.df.nodes):
                if node.kind not in ("load", "store", "call", "spawn"):
                    continue
                if any(p.incoming is not None for p in node.inputs):
                    continue
                trigger = self.const_port(1, BOOL)
                self._connect(trigger, node.enable_predicate())
            return
        if self.loopctl is not None and self.loopctl.conditional:
            # Conditional loops run speculative iterations past the
            # failing check; every side effect must consume a 'valid
            # iteration' token so speculation never becomes visible.
            self._gate_effects_on_active()
        locked: Set[int] = set()
        if self.loopctl is not None:
            locked.add(id(self.loopctl))
        for node in self.df.nodes:
            if node.kind == "phi":
                locked.add(id(node))
        changed = True
        while changed:
            changed = False
            for node in self.df.nodes:
                if id(node) in locked:
                    continue
                for port in node.inputs:
                    conn = port.incoming
                    if conn is not None and not conn.latched and \
                            id(conn.src.node) in locked:
                        locked.add(id(node))
                        changed = True
                        break
        for node in self.df.nodes:
            if node.kind not in ("load", "store", "call", "spawn"):
                continue
            if id(node) in locked:
                continue
            self._merge_active_into_pred(node)

    def _gate_effects_on_active(self) -> None:
        for node in list(self.df.nodes):
            if node.kind in ("load", "store", "call", "spawn"):
                self._merge_active_into_pred(node)

    def _merge_active_into_pred(self, node) -> None:
        active = self.loopctl.active
        if node.pred is not None and node.pred.incoming is not None:
            existing = node.pred.incoming.src
            if existing is active:
                return
            self.df.disconnect(node.pred.incoming)
            merged = self._make_logic("and", active, existing)
            self._connect(merged, node.pred)
        else:
            self._connect(active, node.enable_predicate())

    # -- operand resolution ------------------------------------------------
    def resolve(self, value: Value) -> Port:
        if value in self.value_map:
            return self.value_map[value]
        if isinstance(value, Constant):
            return self.const_port(value.value, value.type)
        if isinstance(value, GlobalArray):
            base = self.mt.array_base[value.name]
            return self.const_port(base, I32)
        raise TranslationError(
            f"{self.region.name}: operand {value.short()} is not "
            f"available in this region (missing live-in?)")

    def const_port(self, value, type_: Type) -> Port:
        key = (value, str(type_))
        node = self.const_cache.get(key)
        if node is None:
            node = ConstNode(value, type_,
                             name=self.fresh(f"const"))
            self.df.add(node)
            self.const_cache[key] = node
        return node.out

    def _connect(self, src: Port, dst: Port) -> None:
        latched = self._is_latched_source(src)
        self.df.connect(src, dst, latched=latched)

    def _is_latched_source(self, src: Port) -> bool:
        if self.task.kind != "loop":
            return False
        return src.node.kind in ("const", "livein")


def _vname(value: Value, idx: int) -> str:
    name = getattr(value, "name", "") or f"v{idx}"
    return name.replace(".", "_")


# ---------------------------------------------------------------------------
# Module-level driver
# ---------------------------------------------------------------------------

class ModuleTranslator:
    """Runs Stage 1 + Stage 2 over a whole module."""

    def __init__(self, module: Module, name: Optional[str] = None,
                 cache_size_words: int = 16384,
                 junction_issue_width: int = 2):
        self.module = module
        self.source_file = module.source_file or module.name
        self.circuit = AcceleratorCircuit(name or module.name)
        self.cache = Cache("l1", size_words=cache_size_words)
        self.circuit.add_structure(self.cache)
        self.junction_issue_width = junction_issue_width
        self.func_regions: Dict[str, Region] = {}
        self.func_access = function_access_sets(module)
        self._edges: Set[Tuple[str, str, str]] = set()
        # Array layout identical to interp.Memory.
        self.array_base: Dict[str, int] = {}
        addr = 0
        for gname, glob in module.globals.items():
            self.array_base[gname] = addr
            self.circuit.array_layout[gname] = (addr, glob.size_words)
            addr += glob.size_words

    def add_task_edge(self, parent: str, child: str, kind: str) -> None:
        # Deferred: the child's task may not be translated yet (calls
        # across functions); edges materialize at the end.
        self._edges.add((parent, child, kind))

    def translate(self) -> AcceleratorCircuit:
        reachable = self._reachable_functions()
        # Pre-create func region names so call sites resolve.
        all_regions: List[Tuple[Function, List[Region]]] = []
        for fn in reachable:
            regions = build_regions(fn, prefix=fn.name)
            all_regions.append((fn, regions))
            for region in regions:
                if region.kind == "func":
                    self.func_regions[fn.name] = region
        mains = [pair for pair in all_regions
                 if pair[0].name == self.module.main.name]
        others = [pair for pair in all_regions
                  if pair[0].name != self.module.main.name]
        # Translate children before parents within each function; the
        # build_regions list is already innermost-first per function.
        for fn, regions in mains + others:
            for region in regions:
                RegionTranslator(self, region).translate()
        for parent, child, kind in sorted(self._edges):
            self.circuit.add_task_edge(TaskEdge(parent, child, kind=kind))
        self.circuit.root = self.func_regions[self.module.main.name].name
        return self.circuit

    def _reachable_functions(self) -> List[Function]:
        main = self.module.main
        seen = {main.name}
        order = [main]
        work = [main]
        while work:
            fn = work.pop()
            for instr in fn.instructions():
                if isinstance(instr, Call) and \
                        instr.callee.name not in seen:
                    seen.add(instr.callee.name)
                    order.append(instr.callee)
                    work.append(instr.callee)
        return order


def translate_module(module: Module, name: Optional[str] = None,
                     **kwargs) -> AcceleratorCircuit:
    """Translate a software-IR module into a baseline uIR circuit."""
    return ModuleTranslator(module, name, **kwargs).translate()
