"""Serialization of uIR circuits: JSON round-trip and Graphviz export.

The JSON form captures the full structural graph (tasks, nodes, typed
ports, connections with their buffering attributes, junctions,
structures, task edges and array layout) so circuits can be saved,
diffed, and reloaded without re-running the front-end.  ``to_dot``
renders the hierarchy for inspection (one cluster per task block).
"""

from __future__ import annotations

import json
from typing import Dict

from ..errors import GraphError
from ..types import parse_type
from .circuit import AcceleratorCircuit, TaskBlock, TaskEdge
from .graph import Node
from .nodes import (
    CallNode,
    ComputeNode,
    ConstNode,
    FusedComputeNode,
    LiveIn,
    LiveOut,
    LoadNode,
    LoopControl,
    PhiNode,
    SelectNode,
    SpawnNode,
    StoreNode,
    SyncNode,
    TensorComputeNode,
)
from .provenance import SourceLoc, provenance_label
from .structures import (
    Cache,
    CounterSpec,
    DRAMModel,
    Junction,
    PerfCounterBank,
    Scratchpad,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Node encoding/decoding
# ---------------------------------------------------------------------------

def _node_to_dict(node: Node) -> Dict:
    d: Dict = {"kind": node.kind, "name": node.name}
    if node.kind in ("compute", "tensor"):
        d["op"] = node.op
        d["type"] = str(node.out.type)
        d["operand_types"] = [str(p.type) for p in node.in_ports]
        d["gep_scale"] = node.gep_scale
    elif node.kind == "fused":
        d["in_types"] = [str(p.type) for p in node.in_ports]
        d["out_type"] = str(node.out.type)
        d["exprs"] = [[op, refs, str(t), scale]
                      for op, refs, t, scale in node.exprs]
        d["fused_names"] = node.fused_names
    elif node.kind == "const":
        d["value"] = node.value
        d["type"] = str(node.out.type)
    elif node.kind == "livein":
        d["index"] = node.index
        d["type"] = str(node.out.type)
    elif node.kind == "liveout":
        d["index"] = node.index
        d["type"] = str(node.inp.type)
    elif node.kind == "select":
        d["type"] = str(node.out.type)
    elif node.kind == "phi":
        d["type"] = str(node.out.type)
    elif node.kind == "loopctl":
        d["conditional"] = node.conditional
        d["pipeline_stages"] = node.pipeline_stages
        d["max_in_flight"] = node.max_in_flight
    elif node.kind == "load":
        d["type"] = str(node.out.type)
        d["array"] = node.array
        d["max_outstanding"] = node.max_outstanding
    elif node.kind == "store":
        d["type"] = str(node.value_type)
        d["array"] = node.array
        d["max_outstanding"] = node.max_outstanding
    elif node.kind in ("call", "spawn"):
        d["callee"] = node.callee
        d["arg_types"] = [str(p.type) for p in node.arg_ports]
        if node.kind == "call":
            d["ret_types"] = [str(p.type) for p in node.ret_ports]
            d["serialize"] = node.serialize
            d["max_outstanding"] = node.max_outstanding
    elif node.kind == "sync":
        pass
    else:
        raise GraphError(f"cannot serialize node kind {node.kind!r}")
    if node.provenance:
        d["provenance"] = [loc.to_dict() for loc in node.provenance]
    return d


def _node_from_dict(d: Dict) -> Node:
    kind = d["kind"]
    name = d["name"]
    node = _node_from_dict_inner(d, kind, name)
    if "tuned_width" in d:
        node.tuned_width = d["tuned_width"]
    if "provenance" in d:
        node.provenance = tuple(SourceLoc.from_dict(p)
                                for p in d["provenance"])
    return node


def _node_from_dict_inner(d: Dict, kind: str, name: str) -> Node:
    if kind in ("compute", "tensor"):
        cls = TensorComputeNode if kind == "tensor" else ComputeNode
        node = cls(d["op"], parse_type(d["type"]),
                   arity=len(d["operand_types"]), name=name,
                   operand_types=[parse_type(t)
                                  for t in d["operand_types"]])
        node.gep_scale = d.get("gep_scale", 1)
        return node
    if kind == "fused":
        return FusedComputeNode(
            name,
            [parse_type(t) for t in d["in_types"]],
            parse_type(d["out_type"]),
            [(op, [tuple(r) for r in refs], parse_type(t), scale)
             for op, refs, t, scale in d["exprs"]],
            fused_names=d.get("fused_names", ()))
    if kind == "const":
        return ConstNode(d["value"], parse_type(d["type"]), name=name)
    if kind == "livein":
        return LiveIn(d["index"], parse_type(d["type"]), name=name)
    if kind == "liveout":
        return LiveOut(d["index"], parse_type(d["type"]), name=name)
    if kind == "select":
        return SelectNode(parse_type(d["type"]), name=name)
    if kind == "phi":
        return PhiNode(parse_type(d["type"]), name=name)
    if kind == "loopctl":
        node = LoopControl(name=name, conditional=d["conditional"])
        node.pipeline_stages = d["pipeline_stages"]
        node.max_in_flight = d["max_in_flight"]
        return node
    if kind == "load":
        node = LoadNode(parse_type(d["type"]), name=name)
        node.array = d.get("array")
        node.max_outstanding = d.get("max_outstanding", 4)
        return node
    if kind == "store":
        node = StoreNode(parse_type(d["type"]), name=name)
        node.array = d.get("array")
        node.max_outstanding = d.get("max_outstanding", 4)
        return node
    if kind == "call":
        node = CallNode(d["callee"],
                        [parse_type(t) for t in d["arg_types"]],
                        [parse_type(t) for t in d["ret_types"]],
                        name=name)
        node.serialize = d.get("serialize", False)
        node.max_outstanding = d.get("max_outstanding", 8)
        return node
    if kind == "spawn":
        return SpawnNode(d["callee"],
                         [parse_type(t) for t in d["arg_types"]],
                         name=name)
    if kind == "sync":
        return SyncNode(name=name)
    raise GraphError(f"cannot deserialize node kind {kind!r}")


def _port_ref(port) -> Dict:
    return {"node": port.node.name, "port": port.name}


# ---------------------------------------------------------------------------
# Circuit <-> dict
# ---------------------------------------------------------------------------

def circuit_to_dict(circuit: AcceleratorCircuit) -> Dict:
    """Encode a circuit as a JSON-compatible dict."""
    structures = []
    for s in circuit.structures:
        if isinstance(s, Scratchpad):
            structures.append({
                "kind": "scratchpad", "name": s.name,
                "size_words": s.size_words, "banks": s.banks,
                "ports_per_bank": s.ports_per_bank,
                "latency": s.latency, "arrays": list(s.arrays),
                "shape": list(s.shape) if s.shape else None,
                "write_buffer_entries": s.write_buffer_entries})
        elif isinstance(s, Cache):
            structures.append({
                "kind": "cache", "name": s.name,
                "size_words": s.size_words, "banks": s.banks,
                "line_words": s.line_words,
                "hit_latency": s.hit_latency,
                "ports_per_bank": s.ports_per_bank,
                "ways": s.ways})
        elif isinstance(s, PerfCounterBank):
            structures.append({
                "kind": "perf_counters", "name": s.name,
                "task": s.task,
                "counters": [{"name": c.name, "kind": c.kind,
                              "target": c.target, "width": c.width}
                             for c in s.counters]})

    tasks = []
    for task in circuit.tasks.values():
        df = task.dataflow
        tasks.append({
            "name": task.name,
            "kind": task.kind,
            "num_tiles": task.num_tiles,
            "queue_depth": task.queue_depth,
            "live_in_types": [str(t) for t in task.live_in_types],
            "live_out_types": [str(t) for t in task.live_out_types],
            "nodes": [_node_to_dict(n) for n in df.nodes],
            "connections": [{
                "src": _port_ref(c.src), "dst": _port_ref(c.dst),
                "buffered": c.buffered, "depth": c.depth,
                "latched": c.latched,
                "tuned_bits": c.tuned_bits} for c in df.connections],
            # Optional ports created lazily (pred/order) must exist
            # before connections are rebuilt.
            "lazy_ports": [
                {"node": n.name, "port": p}
                for n in df.nodes
                for p, attr in (("pred", "pred"), ("order", "order_in"))
                if getattr(n, attr, None) is not None],
            "junctions": [{
                "name": j.name, "structure": j.structure.name,
                "issue_width": j.issue_width,
                "clients": [c.name for c in j.clients]}
                for j in task.junctions],
        })

    return {
        "format": FORMAT_VERSION,
        "name": circuit.name,
        "root": circuit.root,
        "clock_period_ns": circuit.clock_period_ns,
        "dram": {"latency": circuit.dram.latency,
                 "requests_per_cycle": circuit.dram.requests_per_cycle},
        "array_layout": {k: list(v)
                         for k, v in circuit.array_layout.items()},
        "array_home": {k: v.name for k, v in circuit.array_home.items()},
        "structures": structures,
        "tasks": tasks,
        "task_edges": [{
            "parent": e.parent, "child": e.child, "kind": e.kind,
            "queue_depth": e.queue_depth, "decoupled": e.decoupled}
            for e in circuit.task_edges],
    }


def circuit_from_dict(data: Dict) -> AcceleratorCircuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported circuit format {data.get('format')!r}")
    circuit = AcceleratorCircuit(data["name"])
    circuit.clock_period_ns = data["clock_period_ns"]
    circuit.dram = DRAMModel(
        latency=data["dram"]["latency"],
        requests_per_cycle=data["dram"]["requests_per_cycle"])
    circuit.array_layout = {k: tuple(v)
                            for k, v in data["array_layout"].items()}

    for s in data["structures"]:
        if s["kind"] == "scratchpad":
            circuit.add_structure(Scratchpad(
                s["name"], size_words=s["size_words"],
                banks=s["banks"], ports_per_bank=s["ports_per_bank"],
                latency=s["latency"], arrays=s["arrays"],
                shape=tuple(s["shape"]) if s["shape"] else None,
                write_buffer_entries=s.get("write_buffer_entries", 0)))
        elif s["kind"] == "cache":
            circuit.add_structure(Cache(
                s["name"], size_words=s["size_words"],
                banks=s["banks"], line_words=s["line_words"],
                hit_latency=s["hit_latency"],
                ports_per_bank=s["ports_per_bank"],
                ways=s.get("ways", 1)))
        elif s["kind"] == "perf_counters":
            circuit.add_structure(PerfCounterBank(
                s["name"], task=s.get("task", ""),
                counters=[CounterSpec(c["name"], c["kind"],
                                      c.get("target", ""),
                                      c.get("width", 32))
                          for c in s.get("counters", [])]))
    circuit.array_home = {
        k: circuit.structure(v)
        for k, v in data["array_home"].items()}

    for t in data["tasks"]:
        task = TaskBlock(t["name"], t["kind"])
        task.num_tiles = t["num_tiles"]
        task.queue_depth = t["queue_depth"]
        task.live_in_types = [parse_type(x) for x in t["live_in_types"]]
        task.live_out_types = [parse_type(x)
                               for x in t["live_out_types"]]
        by_name: Dict[str, Node] = {}
        for nd in t["nodes"]:
            node = _node_from_dict(nd)
            task.dataflow.add(node)
            by_name[node.name] = node
        for lazy in t.get("lazy_ports", []):
            node = by_name[lazy["node"]]
            if lazy["port"] == "pred":
                node.enable_predicate()
            else:
                node.enable_order_in()
        for c in t["connections"]:
            src = by_name[c["src"]["node"]].port(c["src"]["port"])
            dst = by_name[c["dst"]["node"]].port(c["dst"]["port"])
            conn = task.dataflow.connect(src, dst,
                                         buffered=c["buffered"],
                                         depth=c["depth"],
                                         latched=c["latched"])
            conn.tuned_bits = c.get("tuned_bits")
        for j in t["junctions"]:
            junction = Junction(j["name"],
                                circuit.structure(j["structure"]),
                                issue_width=j["issue_width"])
            for client in j["clients"]:
                junction.attach(by_name[client])
            task.add_junction(junction)
        task.reindex_junctions()
        circuit.add_task(task)

    for e in data["task_edges"]:
        edge = TaskEdge(e["parent"], e["child"], kind=e["kind"],
                        queue_depth=e["queue_depth"],
                        decoupled=e["decoupled"])
        circuit.add_task_edge(edge)
    circuit.root = data["root"]
    return circuit


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def circuit_fingerprint(circuit: AcceleratorCircuit) -> str:
    """SHA-256 (hex digest) of the circuit as built.

    Build order is content: within-cycle arbitration ties make
    cycle-exact timing depend on the order of nodes, connections and
    junction clients, so two builds that differ only in order may
    simulate to different cycle counts and must not share an
    identity.  The circuit's own *display* name is excluded —
    ``img_2b_4t`` and ``img_scale_p7`` are the same hardware — but
    node, task and structure names are content: they name RTL
    instances.
    """
    import hashlib
    data = circuit_to_dict(circuit)
    data.pop("name", None)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_circuit(circuit: AcceleratorCircuit, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=1)


def load_circuit(path: str) -> AcceleratorCircuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Graphviz
# ---------------------------------------------------------------------------

_KIND_COLOR = {
    "livein": "lightblue", "liveout": "lightblue",
    "const": "gray90", "compute": "white", "tensor": "gold",
    "fused": "palegreen", "select": "white", "phi": "orange",
    "loopctl": "orchid", "load": "salmon", "store": "salmon",
    "call": "khaki", "spawn": "khaki", "sync": "khaki",
}


def to_dot(circuit: AcceleratorCircuit) -> str:
    """Render the circuit as Graphviz dot (clusters per task block)."""
    lines = [f'digraph "{circuit.name}" {{',
             "  rankdir=LR;",
             "  node [shape=box, style=filled, fontsize=10];"]
    for ti, task in enumerate(circuit.tasks.values()):
        lines.append(f"  subgraph cluster_{ti} {{")
        lines.append(f'    label="{task.name} ({task.kind}, '
                     f'{task.num_tiles} tile(s))";')
        for node in task.dataflow.nodes:
            color = _KIND_COLOR.get(node.kind, "white")
            nid = f"n{ti}_{node.id}"
            label = node.describe()
            loc = provenance_label(node.provenance)
            if loc:
                label += f"\\n{loc}"
            lines.append(
                f'    {nid} [label="{label}", '
                f'fillcolor={color}];')
        for conn in task.dataflow.connections:
            src = f"n{ti}_{conn.src.node.id}"
            dst = f"n{ti}_{conn.dst.node.id}"
            style = "dashed" if conn.latched else (
                "solid" if conn.buffered else "bold")
            lines.append(f"    {src} -> {dst} [style={style}];")
        lines.append("  }")
    # Task edges across clusters (anchor on node 0 of each task).
    names = list(circuit.tasks)
    for edge in circuit.task_edges:
        pi, ci = names.index(edge.parent), names.index(edge.child)
        p0 = circuit.tasks[edge.parent].dataflow.nodes[0].id
        c0 = circuit.tasks[edge.child].dataflow.nodes[0].id
        lines.append(
            f'  n{pi}_{p0} -> n{ci}_{c0} [style=dotted, color=blue, '
            f'label="{edge.kind}", lhead=cluster_{ci}];')
    lines.append("}")
    return "\n".join(lines)
