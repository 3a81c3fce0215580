"""Pass 4 — Scratchpad and cache banking (paper sections 4 and 6.4).

Banking stripes words across B independently-ported SRAM blocks; uIR
auto-generates the routing of loads/stores to banks and the shared-port
management (in this reproduction: the simulator's bank queues and the
synthesis model's crossbar cost).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...core.circuit import AcceleratorCircuit
from ...core.structures import Cache
from ...errors import PassError
from ..pass_manager import Pass, PassResult


class ScratchpadBanking(Pass):
    name = "scratchpad_banking"

    def __init__(self, banks: int = 2, ports_per_bank: int = 1,
                 scratchpads: Optional[Sequence[str]] = None):
        if banks < 1:
            raise PassError(f"bad bank count {banks}")
        self.banks = banks
        self.ports_per_bank = ports_per_bank
        self.scratchpads = set(scratchpads) if scratchpads else None

    def apply(self, circuit: AcceleratorCircuit) -> PassResult:
        changed = []
        for spad in circuit.scratchpads():
            if self.scratchpads is not None and \
                    spad.name not in self.scratchpads:
                continue
            spad.banks = self.banks
            spad.ports_per_bank = self.ports_per_bank
            changed.append(spad.name)
        self._widen_junctions(circuit, changed)
        return self._result(bool(changed), banked=changed,
                            banks=self.banks)

    def _widen_junctions(self, circuit, names) -> None:
        # More banks can absorb more requests per cycle; widen the
        # junctions feeding them to match.
        for task in circuit.tasks.values():
            for junction in task.junctions:
                if junction.structure.name in names:
                    junction.issue_width = max(
                        junction.issue_width,
                        self.banks * self.ports_per_bank)


class CacheBanking(Pass):
    name = "cache_banking"

    def __init__(self, banks: int = 2, caches: Optional[Sequence[str]] = None):
        if banks < 1:
            raise PassError(f"bad bank count {banks}")
        self.banks = banks
        self.caches = set(caches) if caches else None

    def apply(self, circuit: AcceleratorCircuit) -> PassResult:
        changed = []
        for structure in circuit.structures:
            if not isinstance(structure, Cache):
                continue
            if self.caches is not None and \
                    structure.name not in self.caches:
                continue
            structure.banks = self.banks
            changed.append(structure.name)
        for task in circuit.tasks.values():
            for junction in task.junctions:
                if junction.structure.name in changed:
                    junction.issue_width = max(junction.issue_width,
                                               self.banks)
        return self._result(bool(changed), banked=changed,
                            banks=self.banks)
