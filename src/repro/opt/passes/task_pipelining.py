"""Pass 1 — Task Block Queuing / Pipelining (paper section 4, Pass 1).

Decouples inter-task ``<||>`` interfaces by deepening their hardware
queues, letting a parent run far ahead of slow children.  The paper's
example decouples the for-loop block from the high-latency tensor block
while leaving the low-latency scalar block coupled; here the default
decouples every edge, and ``edges``/``children`` narrow the scope.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ...core.circuit import AcceleratorCircuit
from ..pass_manager import Pass, PassResult


class TaskPipelining(Pass):
    name = "task_pipelining"

    def __init__(self, queue_depth: int = 64,
                 edges: Optional[Sequence[Tuple[str, str]]] = None,
                 children: Optional[Sequence[str]] = None):
        self.queue_depth = queue_depth
        self.edges = set(edges) if edges is not None else None
        self.children = set(children) if children is not None else None

    def apply(self, circuit: AcceleratorCircuit) -> PassResult:
        changed = []
        for edge in circuit.task_edges:
            if self.edges is not None and \
                    (edge.parent, edge.child) not in self.edges:
                continue
            if self.children is not None and \
                    edge.child not in self.children:
                continue
            if edge.queue_depth < self.queue_depth:
                edge.queue_depth = self.queue_depth
                edge.decoupled = True
                changed.append((edge.parent, edge.child))
        return self._result(bool(changed), decoupled=changed)
