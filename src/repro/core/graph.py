"""Base graph machinery for uIR task dataflows.

A :class:`Dataflow` owns :class:`Node`s; nodes expose typed
:class:`Port`s; :class:`Connection`s join one output port to one input
port.  Output ports may fan out to several connections (the RTL fork
duplicates tokens); each input port accepts at most one connection.

Connections model the paper's latency-insensitive links:

* ``buffered=True`` (default) — a registered ready/valid handshake
  stage; the baseline translation buffers *every* edge, which is the
  slack the OpFusion pass later reclaims;
* ``latched=True`` — a live-in buffer: the consumer reads the value
  repeatedly without consuming it (how loop bodies see loop-invariant
  values, section 3.5 "buffer the live-ins ... feed into the
  dataflow").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import GraphError
from ..types import Type


class Port:
    """One typed endpoint on a node."""

    __slots__ = ("node", "name", "type", "direction",
                 "incoming", "outgoing")

    def __init__(self, node: "Node", name: str, type_: Type,
                 direction: str):
        if direction not in ("in", "out"):
            raise GraphError(f"bad port direction {direction!r}")
        self.node = node
        self.name = name
        self.type = type_
        self.direction = direction
        self.incoming: Optional[Connection] = None   # inputs only
        self.outgoing: List[Connection] = []          # outputs only

    @property
    def is_input(self) -> bool:
        return self.direction == "in"

    def label(self) -> str:
        return f"{self.node.name}.{self.name}"

    def __repr__(self) -> str:
        return f"Port({self.label()}:{self.type}:{self.direction})"


class Connection:
    """A 1-1 dataflow edge between an output and an input port."""

    __slots__ = ("src", "dst", "buffered", "depth", "latched",
                 "tuned_bits")

    def __init__(self, src: Port, dst: Port, buffered: bool = True,
                 depth: int = 2, latched: bool = False):
        self.src = src
        self.dst = dst
        self.buffered = buffered
        self.depth = depth
        self.latched = latched
        #: Narrowed physical width set by the bit-width tuner (None =
        #: use the type's natural width).
        self.tuned_bits: Optional[int] = None

    @property
    def type(self) -> Type:
        return self.src.type

    @property
    def width_bits(self) -> int:
        """Inferred physical width (the paper's port polymorphism)."""
        return self.src.type.bits

    def __repr__(self) -> str:
        kind = "latched" if self.latched else (
            "buffered" if self.buffered else "wire")
        return f"Connection({self.src.label()} -> {self.dst.label()}, {kind})"


class Node:
    """Base class of all dataflow nodes; subclasses add fixed ports."""

    KIND = "node"

    def __init__(self, name: str):
        self.name = name
        self.id: int = -1                      # set by owning Dataflow
        self.dataflow: Optional["Dataflow"] = None
        self.inputs: List[Port] = []
        self.outputs: List[Port] = []
        self._port_map: Dict[str, Port] = {}
        #: Source origins (tuple of provenance.SourceLoc); metadata
        #: only, preserved and merged by passes.
        self.provenance: tuple = ()

    # -- port construction ------------------------------------------------
    def add_in(self, name: str, type_: Type) -> Port:
        return self._add_port(name, type_, "in")

    def add_out(self, name: str, type_: Type) -> Port:
        return self._add_port(name, type_, "out")

    def _add_port(self, name: str, type_: Type, direction: str) -> Port:
        if name in self._port_map:
            raise GraphError(f"duplicate port {name!r} on {self.name}")
        port = Port(self, name, type_, direction)
        (self.inputs if direction == "in" else self.outputs).append(port)
        self._port_map[name] = port
        return port

    def port(self, name: str) -> Port:
        try:
            return self._port_map[name]
        except KeyError:
            raise GraphError(
                f"node {self.name} ({self.KIND}) has no port {name!r}")

    # -- topology helpers ---------------------------------------------------
    def predecessors(self) -> Iterator["Node"]:
        for p in self.inputs:
            if p.incoming is not None:
                yield p.incoming.src.node

    def successors(self) -> Iterator["Node"]:
        for p in self.outputs:
            for conn in p.outgoing:
                yield conn.dst.node

    @property
    def kind(self) -> str:
        return self.KIND

    def describe(self) -> str:
        """One-line description for dumps and the Chisel emitter."""
        return self.KIND

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Dataflow:
    """A task block's internal dataflow graph."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: List[Node] = []
        self.connections: List[Connection] = []
        self._next_id = 0

    # -- construction ---------------------------------------------------
    def add(self, node: Node) -> Node:
        if node.dataflow is not None:
            raise GraphError(f"node {node.name} already owned by "
                             f"{node.dataflow.name}")
        node.id = self._next_id
        self._next_id += 1
        node.dataflow = self
        self.nodes.append(node)
        return node

    def connect(self, src: Port, dst: Port, buffered: bool = True,
                depth: int = 2, latched: bool = False) -> Connection:
        if src.direction != "out":
            raise GraphError(f"connection source {src.label()} is not an "
                             f"output port")
        if dst.direction != "in":
            raise GraphError(f"connection target {dst.label()} is not an "
                             f"input port")
        if dst.incoming is not None:
            raise GraphError(f"input port {dst.label()} already driven "
                             f"by {dst.incoming.src.label()}")
        conn = Connection(src, dst, buffered=buffered, depth=depth,
                          latched=latched)
        src.outgoing.append(conn)
        dst.incoming = conn
        self.connections.append(conn)
        return conn

    def disconnect(self, conn: Connection) -> None:
        conn.src.outgoing.remove(conn)
        conn.dst.incoming = None
        self.connections.remove(conn)

    def remove(self, node: Node) -> None:
        """Remove ``node`` and every connection touching it."""
        for port in list(node.inputs):
            if port.incoming is not None:
                self.disconnect(port.incoming)
        for port in list(node.outputs):
            for conn in list(port.outgoing):
                self.disconnect(conn)
        self.nodes.remove(node)
        node.dataflow = None

    def rewire_output(self, old: Port, new: Port) -> None:
        """Move every consumer of ``old`` onto ``new``."""
        for conn in list(old.outgoing):
            dst, buffered = conn.dst, conn.buffered
            depth, latched = conn.depth, conn.latched
            self.disconnect(conn)
            self.connect(new, dst, buffered=buffered, depth=depth,
                         latched=latched)

    # -- queries --------------------------------------------------------
    def nodes_of_kind(self, kind: str) -> List[Node]:
        return [n for n in self.nodes if n.kind == kind]

    def node_named(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise GraphError(f"dataflow {self.name} has no node {name!r}")

    def topological_order(self) -> List[Node]:
        """Topological order ignoring loop back-edges (phi 'back' ports)."""
        indeg: Dict[Node, int] = {n: 0 for n in self.nodes}
        for conn in self.connections:
            if self._is_back_edge(conn):
                continue
            indeg[conn.dst.node] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        order: List[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for port in node.outputs:
                for conn in port.outgoing:
                    if self._is_back_edge(conn):
                        continue
                    indeg[conn.dst.node] -= 1
                    if indeg[conn.dst.node] == 0:
                        ready.append(conn.dst.node)
        if len(order) != len(self.nodes):
            raise GraphError(
                f"dataflow {self.name} has a combinational cycle "
                f"(only {len(order)}/{len(self.nodes)} nodes ordered)")
        return order

    @staticmethod
    def _is_back_edge(conn: Connection) -> bool:
        if conn.dst.name == "back" and conn.dst.node.kind == "phi":
            return True
        # A conditional loop's continue token is the control back edge.
        return (conn.dst.name == "cont"
                and conn.dst.node.kind == "loopctl")

    def stats(self) -> Dict[str, int]:
        return {"nodes": len(self.nodes),
                "connections": len(self.connections)}

    def __repr__(self) -> str:
        return (f"Dataflow({self.name}, {len(self.nodes)} nodes, "
                f"{len(self.connections)} edges)")
