"""Memory-system models: junctions, scratchpads, caches, DRAM.

All structures are timing models over one shared word-addressed memory
image (see :mod:`repro.core.structures` for why this preserves
behavior).  Reads and writes are *performed* when the structure
processes them, so memory-ordering behavior is observable and the
translator's ordering edges are genuinely exercised.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.structures import Cache, DRAMModel, Junction, Scratchpad
from ..errors import SimulationError
from .stats import SimStats


class MemRequest:
    """A single word transaction issued by a load/store databox."""

    __slots__ = ("addr", "is_write", "value", "done", "on_done")

    def __init__(self, addr: int, is_write: bool, value=None,
                 on_done: Optional[Callable] = None):
        self.addr = addr
        self.is_write = is_write
        self.value = value      # write data / read result
        self.done = False
        self.on_done = on_done

    def complete(self, value=None) -> None:
        if not self.is_write:
            self.value = value
        self.done = True
        if self.on_done is not None:
            self.on_done(self)


class DRAMSim:
    """Fixed-latency, bandwidth-limited off-chip memory."""

    def __init__(self, model: DRAMModel, image: List, stats: SimStats,
                 faults=None):
        self.model = model
        self.image = image
        self.stats = stats
        self.latency = model.latency + (
            faults.memory_extra(model.name) if faults is not None else 0)
        self.queue: deque = deque()
        self._staged: List = []
        self.pending: List = []      # heap of (ready_cycle, seq, request)
        self._seq = 0

    def submit(self, request: MemRequest) -> None:
        self._staged.append(request)

    def tick(self, now: int) -> None:
        if self.pending:
            self.stats.dram_busy_cycles += 1
        for _ in range(self.model.requests_per_cycle):
            if not self.queue:
                break
            req = self.queue.popleft()
            self.stats.dram_requests += 1
            self._perform(req)
            self._seq += 1
            heapq.heappush(self.pending,
                           (now + self.latency, self._seq, req))
        while self.pending and self.pending[0][0] <= now:
            _rc, _s, req = heapq.heappop(self.pending)
            req.complete(req.value)

    def _perform(self, req: MemRequest) -> None:
        if req.is_write:
            self.image[req.addr] = req.value
        else:
            req.value = self.image[req.addr]

    def commit(self) -> bool:
        moved = bool(self._staged)
        self.queue.extend(self._staged)
        self._staged.clear()
        return moved or bool(self.queue) or bool(self.pending)


class StructureSim:
    """Base class for scratchpad/cache simulators."""

    def __init__(self, image: List, stats: SimStats):
        self.image = image
        self.stats = stats
        self._staged: List[MemRequest] = []

    def submit(self, request: MemRequest) -> None:
        self._staged.append(request)

    def tick(self, now: int) -> None:
        raise NotImplementedError

    def commit(self) -> bool:
        raise NotImplementedError

    def busy(self) -> bool:
        raise NotImplementedError


class ScratchpadSim(StructureSim):
    """Banked local RAM built from dual-port (1R1W) SRAM blocks:
    ``ports_per_bank`` *read* accesses plus ``ports_per_bank`` *write*
    accesses per bank per cycle, fixed ``latency`` to completion (the
    paper's Pass-4 discussion is explicitly in terms of dual-port
    SRABs).  Data is preloaded (DMA happens before kernel start, as in
    the paper's evaluation loops)."""

    def __init__(self, spad: Scratchpad, image: List, stats: SimStats,
                 faults=None):
        super().__init__(image, stats)
        self.spad = spad
        self.latency = spad.latency + (
            faults.memory_extra(spad.name) if faults is not None else 0)
        self.read_queues: List[deque] = [deque()
                                         for _ in range(spad.banks)]
        self.write_queues: List[deque] = [deque()
                                          for _ in range(spad.banks)]
        self.pending: List = []
        self._seq = 0
        # Writeback buffer: (addr, value) in program-arrival order.
        self.write_buffer: deque = deque()
        self._wb_index: Dict[int, object] = {}

    def _bank_of(self, addr: int) -> int:
        return addr % self.spad.banks

    def tick(self, now: int) -> None:
        # Drain the writeback buffer through the write ports.
        drained = 0
        drain_bw = self.spad.banks * self.spad.ports_per_bank
        while self.write_buffer and drained < drain_bw:
            addr, value, seq = self.write_buffer.popleft()
            self.image[addr] = value
            entry = self._wb_index.get(addr)
            if entry is not None and entry[1] == seq:
                del self._wb_index[addr]
            drained += 1
        for queues in (self.read_queues, self.write_queues):
            for queue in queues:
                served = 0
                while queue and served < self.spad.ports_per_bank:
                    req = queue.popleft()
                    served += 1
                    if req.is_write:
                        self.image[req.addr] = req.value
                    else:
                        forwarded = self._wb_index.get(req.addr)
                        if forwarded is not None:
                            req.value = forwarded[0]
                        else:
                            req.value = self.image[req.addr]
                    self._seq += 1
                    heapq.heappush(
                        self.pending,
                        (now + self.latency, self._seq, req))
                if queue:
                    self.stats.bank_conflict_stalls += len(queue)
                    self.stats.site_stalls[
                        f"structure:{self.spad.name}"] += len(queue)
        while self.pending and self.pending[0][0] <= now:
            _rc, _s, req = heapq.heappop(self.pending)
            req.complete(req.value)

    def commit(self) -> bool:
        moved = bool(self._staged)
        for req in self._staged:
            if req.is_write and self.spad.write_buffer_entries and \
                    len(self.write_buffer) < \
                    self.spad.write_buffer_entries:
                # Complete immediately; drain in the background.
                self._seq += 1
                self.write_buffer.append((req.addr, req.value,
                                          self._seq))
                self._wb_index[req.addr] = (req.value, self._seq)
                req.complete(req.value)
                continue
            target = self.write_queues if req.is_write \
                else self.read_queues
            target[self._bank_of(req.addr)].append(req)
        self._staged.clear()
        return moved or bool(self.pending) or \
            any(self.read_queues) or any(self.write_queues) or \
            bool(self.write_buffer)

    def busy(self) -> bool:
        return bool(self.pending) or bool(self._staged) or \
            any(self.read_queues) or any(self.write_queues) or \
            bool(self.write_buffer)


class CacheSim(StructureSim):
    """Set-associative (LRU), write-through, banked cache backed by
    DRAM (``ways=1`` gives the classic direct-mapped behavior)."""

    def __init__(self, cache: Cache, image: List, stats: SimStats,
                 dram: DRAMSim, faults=None):
        super().__init__(image, stats)
        self.cache = cache
        self.dram = dram
        self.hit_latency = cache.hit_latency + (
            faults.memory_extra(cache.name) if faults is not None else 0)
        self.bank_queues: List[deque] = [deque()
                                         for _ in range(cache.banks)]
        lines = max(1, cache.size_words
                    // (cache.line_words * cache.banks))
        self.ways = max(1, cache.ways)
        self.sets = max(1, lines // self.ways)
        # tags[bank, set] = LRU-ordered deque of resident line ids
        # (most recent at the right), built at the set's first access.
        self.tags: Dict[Tuple[int, int], deque] = defaultdict(deque)
        self.pending: List = []
        self._seq = 0
        # line id -> list of requests waiting on the fill (MSHR).
        self.mshr: Dict[int, List[MemRequest]] = {}

    def _line_of(self, addr: int) -> int:
        return addr // self.cache.line_words

    def _bank_of(self, line: int) -> int:
        return line % self.cache.banks

    def _set_of(self, line: int) -> int:
        return (line // self.cache.banks) % self.sets

    def tick(self, now: int) -> None:
        for bank, queue in enumerate(self.bank_queues):
            served = 0
            while queue and served < self.cache.ports_per_bank:
                req = queue.popleft()
                served += 1
                self._access(req, bank, now)
            if queue:
                self.stats.bank_conflict_stalls += len(queue)
                self.stats.site_stalls[
                    f"structure:{self.cache.name}"] += len(queue)
        while self.pending and self.pending[0][0] <= now:
            _rc, _s, req = heapq.heappop(self.pending)
            req.complete(req.value)

    def _access(self, req: MemRequest, bank: int, now: int) -> None:
        line = self._line_of(req.addr)
        set_idx = self._set_of(line)
        resident = self.tags[bank, set_idx]
        if line in resident:
            resident.remove(line)
            resident.append(line)  # LRU touch
            self.stats.cache_hits += 1
            self._perform(req)
            self._seq += 1
            heapq.heappush(self.pending,
                           (now + self.hit_latency, self._seq, req))
            if req.is_write:
                # Write-through traffic occupies DRAM bandwidth but the
                # requester does not wait for it.
                self.dram.submit(MemRequest(req.addr, True, req.value))
            return
        self.stats.cache_misses += 1
        if line in self.mshr:
            self.mshr[line].append(req)
            return
        self.mshr[line] = [req]
        fill = MemRequest(req.addr, False,
                          on_done=lambda _r, l=line, b=bank,
                          s=set_idx: self._fill(l, b, s))
        self.dram.submit(fill)

    def _fill(self, line: int, bank: int, set_idx: int) -> None:
        resident = self.tags[bank, set_idx]
        if line not in resident:
            if len(resident) >= self.ways:
                resident.popleft()  # evict LRU (write-through: clean)
            resident.append(line)
        waiting = self.mshr.pop(line, [])
        for req in waiting:
            self._perform(req)
            if req.is_write:
                self.dram.submit(MemRequest(req.addr, True, req.value))
            # Hit latency applies after the fill; complete directly to
            # keep the MSHR model simple (fill already paid the miss).
            req.complete(req.value)

    def _perform(self, req: MemRequest) -> None:
        if req.is_write:
            self.image[req.addr] = req.value
        else:
            req.value = self.image[req.addr]

    def commit(self) -> bool:
        moved = bool(self._staged)
        for req in self._staged:
            line = self._line_of(req.addr)
            self.bank_queues[self._bank_of(line)].append(req)
        self._staged.clear()
        return moved or bool(self.pending) or bool(self.mshr) or \
            any(self.bank_queues)

    def busy(self) -> bool:
        return bool(self.pending) or bool(self._staged) or \
            bool(self.mshr) or any(self.bank_queues)


class JunctionSim:
    """Arbitrates a task's memory nodes onto one structure."""

    def __init__(self, junction: Junction, structure_sim: StructureSim,
                 stats: SimStats, faults=None):
        self.junction = junction
        self.structure_sim = structure_sim
        self.stats = stats
        self.faults = faults
        self.queue: deque = deque()
        self._staged: List[MemRequest] = []

    def submit(self, request: MemRequest) -> None:
        self._staged.append(request)

    def tick(self, now: int) -> None:
        if self.faults is not None:
            self.faults.shuffle_grants(self.junction.name, self.queue)
        width = self.junction.issue_width
        served = 0
        for _ in range(width):
            if not self.queue:
                break
            self.structure_sim.submit(self.queue.popleft())
            served += 1
        if served:
            self.stats.junction_grants[self.junction.name] += served
        if self.queue:
            self.stats.junction_stalls += len(self.queue)
            self.stats.site_stalls[
                f"junction:{self.junction.name}"] += len(self.queue)

    def commit(self) -> bool:
        moved = bool(self._staged)
        self.queue.extend(self._staged)
        self._staged.clear()
        return moved or bool(self.queue)


class MemorySystem:
    """All structure/junction simulators for one circuit."""

    def __init__(self, circuit, image: List, stats: SimStats,
                 faults=None):
        self.image = image
        self.stats = stats
        self.faults = faults
        self.dram = DRAMSim(circuit.dram, image, stats, faults)
        self.structure_sims: Dict[int, StructureSim] = {}
        for structure in circuit.structures:
            if isinstance(structure, Scratchpad):
                sim = ScratchpadSim(structure, image, stats, faults)
            elif isinstance(structure, Cache):
                sim = CacheSim(structure, image, stats, self.dram,
                               faults)
            else:
                continue
            self.structure_sims[id(structure)] = sim
        self.junction_sims: Dict[int, JunctionSim] = {}
        for task in circuit.tasks.values():
            for junction in task.junctions:
                target = self.structure_sims.get(id(junction.structure))
                if target is None:
                    raise SimulationError(
                        f"junction {junction.name} targets structure "
                        f"with no simulator")
                self.junction_sims[id(junction)] = JunctionSim(
                    junction, target, stats, faults)
        self._jsims = list(self.junction_sims.values())
        self._ssims = list(self.structure_sims.values())

    def junction_sim(self, junction: Junction) -> JunctionSim:
        return self.junction_sims[id(junction)]

    def tick_active(self, now: int) -> bool:
        """One cycle of the memory system: tick and commit each busy
        component in turn (junctions, structures, DRAM), skipping idle
        ones.

        An idle component's tick and commit are both no-ops, and the
        staged buffers between junction -> structure -> DRAM decouple
        the component pairs, so committing each component right after
        its own tick moves the same requests as ticking all, then
        committing all.  Returns the combined commit activity (the
        kernels' progress signal): whether any component moved a
        request or still holds work after its commit.
        """
        active = False
        for jsim in self._jsims:
            if jsim.queue or jsim._staged:
                jsim.tick(now)
                active |= jsim.commit()
        for ssim in self._ssims:
            if ssim.busy():
                ssim.tick(now)
                active |= ssim.commit()
        dram = self.dram
        if dram.queue or dram.pending or dram._staged:
            dram.tick(now)
            active |= dram.commit()
        return active
