"""FIRRTL-like low-level circuit graph and uIR -> FIRRTL lowering.

The paper's section 7 quantifies uIR's productivity against a
hypothetical flow where transformations are written at FIRRTL level:
it counts how many nodes/edges of each representation a transformation
touches, and the overall FIRRTL/uIR graph-size ratio (8.4-12.4x).

To measure rather than estimate this, we lower uIR to an explicit
circuit graph of FIRRTL-ish primitives — every dataflow node expands
into its operator primitive(s) plus the ready/valid handshake logic
(valid register, data register, ready gate, fire gate), junctions
expand into arbiter trees, structures into memory macros with per-bank
decoders, and task edges into issue queues.  Names are deterministic,
so two lowered circuits can be diffed structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.circuit import AcceleratorCircuit
from ..core.structures import Cache, Scratchpad


@dataclass
class FirrtlCircuit:
    """A flat structural graph of primitive RTL elements."""

    name: str
    nodes: Set[str] = field(default_factory=set)
    node_kinds: Dict[str, str] = field(default_factory=dict)
    edges: Set[Tuple[str, str, str]] = field(default_factory=set)

    def add_node(self, name: str, kind: str) -> str:
        self.nodes.add(name)
        self.node_kinds[name] = kind
        return name

    def add_edge(self, src: str, dst: str, tag: str = "w") -> None:
        self.edges.add((src, dst, tag))

    def stats(self) -> Dict[str, int]:
        return {"nodes": len(self.nodes), "edges": len(self.edges)}

    def __repr__(self) -> str:
        return (f"FirrtlCircuit({self.name}, {len(self.nodes)} nodes, "
                f"{len(self.edges)} edges)")


#: Primitive expansion per uIR node kind: list of (suffix, prim_kind).
_HANDSHAKE = [("valid_reg", "reg"), ("data_reg", "reg"),
              ("ready_gate", "and"), ("fire_gate", "and"),
              ("en_gate", "and"), ("rst_mux", "mux")]

_EXPANSION: Dict[str, List[Tuple[str, str]]] = {
    "compute": [("op", "primop")] + _HANDSHAKE,
    "tensor": [(f"lane{i}", "primop") for i in range(4)]
    + [("reduce", "primop")] + _HANDSHAKE,
    "select": [("mux", "mux")] + _HANDSHAKE,
    "phi": [("mux", "mux"), ("state_reg", "reg")] + _HANDSHAKE,
    "const": [("lit", "literal")],
    "livein": [("buf_reg", "reg"), ("valid_reg", "reg")],
    "liveout": [("buf_reg", "reg"), ("valid_reg", "reg")],
    "loopctl": [("idx_reg", "reg"), ("inc", "primop"),
                ("cmp", "primop"), ("bound_reg", "reg"),
                ("step_reg", "reg"), ("fsm_reg", "reg"),
                ("issue_gate", "and")] + _HANDSHAKE,
    "load": [("addr_gen", "primop"), ("pend_reg", "reg"),
             ("coalesce", "mux")] + _HANDSHAKE,
    "store": [("addr_gen", "primop"), ("pend_reg", "reg"),
              ("wdata_reg", "reg")] + _HANDSHAKE,
    "call": [("req_queue", "queue"), ("resp_reg", "reg"),
             ("tag_reg", "reg")] + _HANDSHAKE,
    "spawn": [("req_queue", "queue"), ("tag_reg", "reg")] + _HANDSHAKE,
    "sync": [("count_reg", "reg"), ("cmp", "primop")] + _HANDSHAKE,
    "fused": _HANDSHAKE,  # + one primop per fused expression, below
}

#: Dense internal wiring per expansion (edges among the node's prims).
_INTERNAL_EDGE_FACTOR = 1.4


def _lower_node(fc: FirrtlCircuit, prefix: str, node) -> List[str]:
    base = f"{prefix}.{node.name}"
    prims = list(_EXPANSION.get(node.kind, _HANDSHAKE))
    if node.kind == "fused":
        prims = [(f"op{i}", "primop")
                 for i in range(len(node.exprs))] + prims
    names = [fc.add_node(f"{base}.{suffix}", kind)
             for suffix, kind in prims]
    # Internal wiring: chain prims + handshake cross links.
    for a, b in zip(names, names[1:]):
        fc.add_edge(a, b, "int")
    extra = int(len(names) * (_INTERNAL_EDGE_FACTOR - 1.0))
    for i in range(extra):
        fc.add_edge(names[i % len(names)],
                    names[(i * 2 + 1) % len(names)], f"x{i}")
    return names


def _lower_connection(fc: FirrtlCircuit, prefix: str, conn,
                      anchor: Dict[Tuple[str, str], str]) -> None:
    src = anchor[(prefix, conn.src.node.name)]
    dst = anchor[(prefix, conn.dst.node.name)]
    tag = f"{conn.src.name}->{conn.dst.name}"
    fc.add_edge(src, dst, f"data:{tag}")
    fc.add_edge(src, dst, f"valid:{tag}")
    fc.add_edge(dst, src, f"ready:{tag}")
    if conn.buffered and not conn.latched:
        # The baseline's per-edge handshake buffer is its own pair of
        # registers at FIRRTL level (removed by auto-pipelining).
        hs = fc.add_node(
            f"{prefix}.hs.{conn.src.node.name}.{tag}", "reg")
        hs_v = fc.add_node(
            f"{prefix}.hsv.{conn.src.node.name}.{tag}", "reg")
        fc.add_edge(src, hs, "hs")
        fc.add_edge(hs, dst, "hs")
        fc.add_edge(hs_v, hs, "int")


def lower_to_firrtl(circuit: AcceleratorCircuit) -> FirrtlCircuit:
    """Expand a uIR circuit into the FIRRTL-level structural graph."""
    fc = FirrtlCircuit(circuit.name)
    anchor: Dict[Tuple[str, str], str] = {}
    for task in circuit.tasks.values():
        for node in task.dataflow.nodes:
            names = _lower_node(fc, task.name, node)
            anchor[(task.name, node.name)] = names[0]
        for conn in task.dataflow.connections:
            _lower_connection(fc, task.name, conn, anchor)
        # Junctions: arbiter tree (base + per-client grant/mux legs).
        for junction in task.junctions:
            jbase = f"{task.name}.{junction.name}"
            arb = fc.add_node(f"{jbase}.arbiter", "arbiter")
            fc.add_node(f"{jbase}.rr_reg", "reg")
            fc.add_edge(f"{jbase}.rr_reg", arb, "int")
            for i, client in enumerate(junction.clients):
                grant = fc.add_node(f"{jbase}.grant{i}", "and")
                leg = fc.add_node(f"{jbase}.muxleg{i}", "mux")
                fc.add_edge(grant, arb, "int")
                fc.add_edge(leg, arb, "int")
                fc.add_edge(anchor[(task.name, client.name)], leg,
                            "req")
                fc.add_edge(arb, anchor[(task.name, client.name)],
                            "resp")
        # Tile replication: each extra tile is a full copy of the
        # block plus a dispatch crossbar.
        if task.num_tiles > 1:
            for tile in range(1, task.num_tiles):
                prefix = f"{task.name}.tile{tile}"
                tile_anchor: Dict[Tuple[str, str], str] = {}
                for node in task.dataflow.nodes:
                    names = _lower_node(fc, prefix, node)
                    tile_anchor[(prefix, node.name)] = names[0]
                for conn in task.dataflow.connections:
                    _lower_connection(fc, prefix, conn, tile_anchor)
                xbar = fc.add_node(f"{task.name}.xbar{tile}",
                                   "arbiter")
                first = task.dataflow.nodes[0]
                fc.add_edge(xbar, tile_anchor[(prefix, first.name)],
                            "dispatch")

    # Structures: memory macro + per-bank decode/port logic.
    for structure in circuit.structures:
        if not isinstance(structure, (Scratchpad, Cache)):
            continue
        sbase = structure.name
        mem = fc.add_node(f"{sbase}.mem", "mem")
        fc.add_node(f"{sbase}.ctrl_reg", "reg")
        fc.add_edge(f"{sbase}.ctrl_reg", mem, "int")
        for b in range(structure.banks):
            dec = fc.add_node(f"{sbase}.bank{b}.decode", "primop")
            port = fc.add_node(f"{sbase}.bank{b}.port", "mux")
            fc.add_edge(dec, mem, "int")
            fc.add_edge(port, mem, "int")
        if isinstance(structure, Cache):
            fc.add_node(f"{sbase}.tags", "mem")
            fc.add_node(f"{sbase}.mshr", "queue")
            fc.add_edge(f"{sbase}.tags", mem, "int")
            fc.add_edge(f"{sbase}.mshr", mem, "int")

    # Task edges: issue queues (one reg per entry + control).
    for edge in circuit.task_edges:
        ebase = f"queue.{edge.parent}.{edge.child}"
        head = fc.add_node(f"{ebase}.ctrl", "queue")
        for i in range(edge.queue_depth):
            slot = fc.add_node(f"{ebase}.slot{i}", "reg")
            fc.add_edge(slot, head, "int")
    return fc


def diff_circuits(before: FirrtlCircuit,
                  after: FirrtlCircuit) -> Tuple[int, int]:
    """(delta_nodes, delta_edges): structural elements touched by a
    transformation = added + removed elements."""
    dnodes = len(before.nodes ^ after.nodes)
    dedges = len(before.edges ^ after.edges)
    return dnodes, dedges
