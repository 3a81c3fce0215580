"""Whole-accelerator circuit: task blocks, task edges, structures.

This is the top level of the uIR hierarchy (paper section 3.2): a
concurrent graph of task blocks connected by ``<||>`` task interfaces
and, through junctions, ``<==>`` request/response interfaces to memory
structures.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import GraphError
from ..types import Type
from .graph import Dataflow, Node
from .structures import Cache, DRAMModel, Junction, Scratchpad, Structure


class TaskBlock:
    """An asynchronous execution block with a local task queue.

    ``kind`` is ``"func"`` (one invocation = run dataflow once),
    ``"loop"`` (an extracted loop: the loop-control node streams the
    iterations of one invocation through the pipelined body), or
    ``"root"``.  ``num_tiles`` is the execution-tiling degree
    (section 6.2); ``queue_depth`` sizes the hardware issue queue.
    """

    def __init__(self, name: str, kind: str = "func"):
        if kind not in ("func", "loop", "root"):
            raise GraphError(f"bad task kind {kind!r}")
        self.name = name
        self.kind = kind
        self.dataflow = Dataflow(name)
        self.live_in_types: List[Type] = []
        self.live_out_types: List[Type] = []
        self.num_tiles = 1
        self.queue_depth = 8
        self.junctions: List[Junction] = []
        # Loop metadata (loop tasks only).
        self.is_parallel_loop = False

    # -- junction management ---------------------------------------------
    def add_junction(self, junction: Junction) -> Junction:
        self.junctions.append(junction)
        self.reindex_junctions()
        return junction

    def remove_junction(self, junction: Junction) -> None:
        if junction.clients:
            raise GraphError(
                f"junction {junction.name} still has clients")
        self.junctions.remove(junction)
        self.reindex_junctions()

    def reindex_junctions(self) -> None:
        for idx, junction in enumerate(self.junctions):
            for client in junction.clients:
                client.junction_index = idx

    def junction_of(self, node: Node) -> Junction:
        for junction in self.junctions:
            if node in junction.clients:
                return junction
        raise GraphError(
            f"memory node {node.name} of task {self.name} is not "
            f"attached to any junction")

    def memory_nodes(self) -> List[Node]:
        return [n for n in self.dataflow.nodes
                if n.kind in ("load", "store")]

    def call_sites(self) -> List[Node]:
        return [n for n in self.dataflow.nodes
                if n.kind in ("call", "spawn")]

    def stats(self) -> Dict[str, int]:
        s = self.dataflow.stats()
        s["junctions"] = len(self.junctions)
        s["tiles"] = self.num_tiles
        return s

    def __repr__(self) -> str:
        return (f"TaskBlock({self.name}, {self.kind}, "
                f"{len(self.dataflow.nodes)} nodes, "
                f"tiles={self.num_tiles})")


class TaskEdge:
    """Parent-child ``<||>`` connection between two task blocks.

    ``decoupled`` inserts a deep FIFO on the interface so the parent
    can run far ahead of the child (uopt Pass 1, Task Pipelining);
    coupled edges model the baseline's shallow two-entry buffer.
    """

    def __init__(self, parent: str, child: str, kind: str = "call",
                 queue_depth: int = 2, decoupled: bool = False):
        if kind not in ("call", "spawn"):
            raise GraphError(f"bad task edge kind {kind!r}")
        self.parent = parent
        self.child = child
        self.kind = kind
        self.queue_depth = queue_depth
        self.decoupled = decoupled

    def __repr__(self) -> str:
        mark = "<||deep>" if self.decoupled else "<||>"
        return f"TaskEdge({self.parent} {mark} {self.child}, {self.kind})"


class AcceleratorCircuit:
    """The whole accelerator as a structural, concurrent graph."""

    def __init__(self, name: str):
        self.name = name
        self.tasks: Dict[str, TaskBlock] = {}
        self.task_edges: List[TaskEdge] = []
        self.structures: List[Structure] = []
        self.dram = DRAMModel()
        self.root: Optional[str] = None
        # Which structure serves each global array (routing for the
        # simulator and the memory-localization pass); arrays absent
        # from the map use the default cache.
        self.array_home: Dict[str, Structure] = {}
        # Global array layout (name -> (base_word, size_words)),
        # mirrored from the software module so passes can reason about
        # address ranges without the front-end.
        self.array_layout: Dict[str, tuple] = {}
        # Clock target used by fusion/retiming (ns).
        self.clock_period_ns = 2.5

    # -- construction ------------------------------------------------------
    def add_task(self, task: TaskBlock) -> TaskBlock:
        if task.name in self.tasks:
            raise GraphError(f"duplicate task {task.name}")
        self.tasks[task.name] = task
        if self.root is None:
            self.root = task.name
        return task

    def add_structure(self, structure: Structure) -> Structure:
        if any(s.name == structure.name for s in self.structures):
            raise GraphError(f"duplicate structure {structure.name}")
        self.structures.append(structure)
        return structure

    def add_task_edge(self, edge: TaskEdge) -> TaskEdge:
        if edge.parent not in self.tasks or edge.child not in self.tasks:
            raise GraphError(f"task edge references unknown task: {edge}")
        self.task_edges.append(edge)
        return edge

    # -- queries ---------------------------------------------------------
    def task(self, name: str) -> TaskBlock:
        try:
            return self.tasks[name]
        except KeyError:
            raise GraphError(f"no task named {name!r}")

    @property
    def root_task(self) -> TaskBlock:
        if self.root is None:
            raise GraphError("circuit has no tasks")
        return self.tasks[self.root]

    def structure(self, name: str) -> Structure:
        for s in self.structures:
            if s.name == name:
                return s
        raise GraphError(f"no structure named {name!r}")

    @property
    def default_cache(self) -> Cache:
        for s in self.structures:
            if isinstance(s, Cache):
                return s
        raise GraphError("circuit has no cache structure")

    def scratchpads(self) -> List[Scratchpad]:
        return [s for s in self.structures if isinstance(s, Scratchpad)]

    def edges_from(self, parent: str) -> List[TaskEdge]:
        return [e for e in self.task_edges if e.parent == parent]

    def children(self, parent: str) -> List[TaskBlock]:
        return [self.tasks[e.child] for e in self.edges_from(parent)]

    def all_nodes(self) -> Iterator[Node]:
        for task in self.tasks.values():
            yield from task.dataflow.nodes

    def home_of(self, array: str) -> Structure:
        return self.array_home.get(array, self.default_cache)

    def stats(self) -> Dict[str, int]:
        nodes = sum(len(t.dataflow.nodes) for t in self.tasks.values())
        edges = sum(len(t.dataflow.connections)
                    for t in self.tasks.values())
        return {
            "tasks": len(self.tasks),
            "task_edges": len(self.task_edges),
            "nodes": nodes,
            "connections": edges,
            "structures": len(self.structures),
            "junctions": sum(len(t.junctions)
                             for t in self.tasks.values()),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"AcceleratorCircuit({self.name}, tasks={s['tasks']}, "
                f"nodes={s['nodes']}, structures={s['structures']})")
