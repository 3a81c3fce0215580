"""Pass 5 — Auto-pipelining and op fusion (paper sections 4 and 6.1).

The baseline dataflow handshakes on every edge: each cheap integer op
costs a full pipeline stage.  This pass greedily fuses chains of
fusable single-consumer nodes into one :class:`FusedComputeNode` while
the summed combinational delay still fits the clock period (so fusion
never robs frequency), and retimes the loop-control recurrence
(buffer -> phi -> i++ -> cmp -> branch) down to a single stage — the
paper's Pass 5 example.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...core import oplib
from ...core.circuit import AcceleratorCircuit, TaskBlock
from ...core.graph import Node, Port
from ...core.nodes import FusedComputeNode
from ...core.provenance import merge_provenance
from ..pass_manager import Pass, PassResult

_FUSABLE_KINDS = ("compute", "select")


def _node_op(node: Node) -> str:
    return node.op if node.kind == "compute" else "select"


def _node_delay(node: Node) -> float:
    return oplib.op_info(_node_op(node), node.outputs[0].type).delay_ns


def _is_fusable(node: Node) -> bool:
    if node.kind not in _FUSABLE_KINDS:
        return False
    return oplib.is_fusable(_node_op(node), node.outputs[0].type)


def _any_node_delay(node: Node) -> float:
    """Combinational delay of any node kind (for edge balancing)."""
    if node.kind in ("compute", "tensor"):
        return oplib.op_info(node.op, node.outputs[0].type).delay_ns
    if node.kind == "fused":
        return node.delay_ns
    if node.kind == "select":
        return oplib.op_info("select", None).delay_ns
    if node.kind in ("load", "store"):
        return oplib.op_info("load", None).delay_ns
    if node.kind == "loopctl":
        return oplib.op_info("loopctl", None).delay_ns
    if node.kind in ("call", "spawn", "sync"):
        return oplib.op_info("call", None).delay_ns
    return 0.2


class OpFusion(Pass):
    name = "op_fusion"

    #: Retimed loop-control depth ("re-time the pipeline to two
    #: stages", paper Pass 5).
    RETIMED_STAGES = 2

    def __init__(self, retime_loop_control: bool = True,
                 min_budget_ns: float = 1.6,
                 tasks: Optional[List[str]] = None):
        self.retime_loop_control = retime_loop_control
        self.min_budget_ns = min_budget_ns
        self.tasks = set(tasks) if tasks is not None else None

    def apply(self, circuit: AcceleratorCircuit) -> PassResult:
        fused_chains = 0
        fused_nodes = 0
        retimed = 0
        # Never create a stage slower than the design's existing worst
        # stage ("the resulting fused pipeline's frequency is not
        # penalized", section 6.1).
        worst = self.min_budget_ns
        for node in circuit.all_nodes():
            if node.kind in _FUSABLE_KINDS:
                worst = max(worst, _node_delay(node))
            elif node.kind in ("compute", "tensor"):
                worst = max(worst, _node_delay(node))
        budget = max(self.min_budget_ns, worst)
        debuffered = 0
        for task in circuit.tasks.values():
            if self.tasks is not None and task.name not in self.tasks:
                continue
            chains = self._find_chains(task, budget)
            for chain in chains:
                self._fuse(task, chain)
                fused_chains += 1
                fused_nodes += len(chain)
            if self.retime_loop_control:
                for ctl in task.dataflow.nodes_of_kind("loopctl"):
                    if ctl.pipeline_stages > self.RETIMED_STAGES:
                        ctl.pipeline_stages = self.RETIMED_STAGES
                        retimed += 1
            debuffered += self._balance_pipeline(task, budget)
        changed = bool(fused_chains or retimed or debuffered)
        result = self._result(changed, chains=fused_chains,
                              nodes_fused=fused_nodes,
                              loop_controls_retimed=retimed,
                              edges_debuffered=debuffered)
        # Semantic edit size (Table 4): chains collapse (members -> one
        # fused node), and each debuffered/rewired edge is one edit.
        result.nodes_removed = max(0, fused_nodes - fused_chains)
        result.nodes_added = 0
        result.edges_removed = max(0, fused_nodes - fused_chains)
        result.edges_added = debuffered  # attribute edit per edge
        return result

    def _balance_pipeline(self, task: TaskBlock, budget: float) -> int:
        """Auto-pipelining: drop the handshake register from edges
        whose endpoint delays still meet timing without it."""
        removed = 0
        for conn in task.dataflow.connections:
            if conn.latched or not conn.buffered:
                continue
            src_delay = _any_node_delay(conn.src.node)
            dst_delay = _any_node_delay(conn.dst.node)
            if src_delay + dst_delay <= budget:
                conn.buffered = False
                removed += 1
        return removed

    # ------------------------------------------------------------------
    def _find_chains(self, task: TaskBlock,
                     budget: float) -> List[List[Node]]:
        df = task.dataflow
        taken: set = set()
        chains: List[List[Node]] = []
        for node in df.topological_order():
            if id(node) in taken or not _is_fusable(node):
                continue
            chain = [node]
            delay = _node_delay(node)
            current = node
            while True:
                succ = self._sole_fusable_successor(current, taken)
                if succ is None:
                    break
                succ_delay = _node_delay(succ)
                if delay + succ_delay > budget:
                    break
                chain.append(succ)
                taken.add(id(succ))
                delay += succ_delay
                current = succ
            if len(chain) >= 2:
                taken.update(id(n) for n in chain)
                chains.append(chain)
        return chains

    @staticmethod
    def _sole_fusable_successor(node: Node, taken) -> Optional[Node]:
        out = node.outputs[0]
        if len(out.outgoing) != 1:
            return None
        conn = out.outgoing[0]
        succ = conn.dst.node
        if id(succ) in taken or not _is_fusable(succ):
            return None
        if conn.dst.name == "back":
            return None
        return succ

    # ------------------------------------------------------------------
    def _fuse(self, task: TaskBlock, chain: List[Node]) -> None:
        df = task.dataflow
        members = {id(n): i for i, n in enumerate(chain)}
        external: List[Port] = []          # source ports, in order
        external_latched: List[bool] = []
        exprs: List[Tuple[str, List[Tuple[str, int]], object, int]] = []

        def external_index(src: Port, latched: bool) -> int:
            for i, port in enumerate(external):
                if port is src and external_latched[i] == latched:
                    return i
            external.append(src)
            external_latched.append(latched)
            return len(external) - 1

        for node in chain:
            refs: List[Tuple[str, int]] = []
            for port in node.inputs:
                conn = port.incoming
                src_node = conn.src.node
                if id(src_node) in members and \
                        members[id(src_node)] < members[id(node)]:
                    refs.append(("expr", members[id(src_node)]))
                else:
                    refs.append(("in", external_index(conn.src,
                                                      conn.latched)))
            scale = getattr(node, "gep_scale", 1)
            exprs.append((_node_op(node), refs,
                          node.outputs[0].type, scale))

        last = chain[-1]
        fused = FusedComputeNode(
            name=f"fused_{chain[0].name}",
            in_types=[p.type for p in external],
            out_type=last.outputs[0].type,
            exprs=exprs,
            fused_names=[n.name for n in chain])
        fused.provenance = merge_provenance(
            *(n.provenance for n in chain))
        df.add(fused)
        # External inputs.
        for i, src in enumerate(external):
            df.connect(src, fused.in_ports[i],
                       latched=external_latched[i])
        # Consumers of the chain tail move to the fused output.
        df.rewire_output(last.outputs[0], fused.out)
        for node in chain:
            df.remove(node)
