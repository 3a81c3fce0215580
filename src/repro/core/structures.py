"""Hardware structures and junctions (paper sections 3.2 and 3.4).

Structures encapsulate state with no software representation: local
scratchpads and caches forming the partitioned global address space.
All structures are *views* over the single coherent global memory image
(the paper's address spaces are incoherent with each other but coherent
with DRAM; our workloads never alias one array into two spaces, so a
shared backing image with per-structure timing is behavior-identical).

A :class:`Junction` is the N:1 time-multiplexed request network between
a task's memory nodes and one structure; its ``issue_width`` is the
number of requests it can forward per cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import GraphError
from .graph import Node


class Structure:
    """Base class for circuit-level hardware structures."""

    KIND = "structure"

    def __init__(self, name: str):
        self.name = name
        #: Source origins (tuple of provenance.SourceLoc) of the
        #: software accesses this structure serves; metadata only.
        self.provenance: tuple = ()

    def describe(self) -> str:
        return self.KIND

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Scratchpad(Structure):
    """Software-managed local RAM (DMA-filled before kernel start).

    ``arrays`` lists the global arrays this scratchpad serves; the
    memory-localization pass populates it.  ``shape`` optionally records
    a tensor tile shape so RTL generation can emit wide RAM ports
    (section 6.3: "uIR autogenerates RTL for the appropriate RAMs").
    """

    KIND = "scratchpad"

    def __init__(self, name: str, size_words: int = 16384,
                 banks: int = 1, ports_per_bank: int = 1,
                 latency: int = 1, arrays: Sequence[str] = (),
                 shape: Optional[tuple] = None,
                 write_buffer_entries: int = 0):
        super().__init__(name)
        self.size_words = size_words
        self.banks = banks
        self.ports_per_bank = ports_per_bank
        self.latency = latency
        self.arrays: List[str] = list(arrays)
        self.shape = shape
        #: >0 enables a writeback buffer: stores complete on buffer
        #: entry (with store-to-load forwarding), draining to the
        #: banks in the background (paper Pass 3's "separate
        #: writeback buffer" option).
        self.write_buffer_entries = write_buffer_entries

    @property
    def total_ports(self) -> int:
        return self.banks * self.ports_per_bank

    def describe(self) -> str:
        return (f"scratchpad[{self.size_words}w, {self.banks}b x "
                f"{self.ports_per_bank}p, lat={self.latency}]")


class Cache(Structure):
    """Hardware-managed cache backed by DRAM (the default global path).

    ``ways`` selects associativity (1 = direct mapped); replacement is
    LRU within a set.
    """

    KIND = "cache"

    def __init__(self, name: str, size_words: int = 16384,
                 banks: int = 1, line_words: int = 4,
                 hit_latency: int = 2, ports_per_bank: int = 1,
                 ways: int = 1):
        super().__init__(name)
        if ways < 1:
            raise GraphError(f"cache {name}: bad associativity {ways}")
        self.size_words = size_words
        self.banks = banks
        self.line_words = line_words
        self.hit_latency = hit_latency
        self.ports_per_bank = ports_per_bank
        self.ways = ways

    @property
    def lines_per_bank(self) -> int:
        return max(1, self.size_words // (self.line_words * self.banks))

    def describe(self) -> str:
        return (f"cache[{self.size_words}w, {self.banks}b, "
                f"{self.ways}way, line={self.line_words}w, "
                f"hit={self.hit_latency}]")


class DRAMModel(Structure):
    """Off-chip memory behind the AXI port."""

    KIND = "dram"

    def __init__(self, name: str = "dram", latency: int = 24,
                 requests_per_cycle: int = 2):
        super().__init__(name)
        self.latency = latency
        self.requests_per_cycle = requests_per_cycle

    def describe(self) -> str:
        return f"dram[lat={self.latency}, bw={self.requests_per_cycle}/cyc]"


#: Counter kinds a :class:`PerfCounterBank` supports and the SimStats
#: quantity each one samples in the analytic flow.
COUNTER_KINDS = (
    "node_fires",          # invocations of a task / fires of a node kind
    "chan_occupancy_hwm",  # producer back-pressure on an output channel
    "bank_conflict",       # serialized requests at one structure's banks
    "arbiter_grant",       # junction arbitration events
)


class CounterSpec:
    """One hardware performance counter: what it counts and where."""

    __slots__ = ("name", "kind", "target", "width")

    def __init__(self, name: str, kind: str, target: str = "",
                 width: int = 32):
        if kind not in COUNTER_KINDS:
            raise GraphError(f"counter {name}: unknown kind {kind!r}")
        self.name = name
        self.kind = kind
        self.target = target
        self.width = width

    def __repr__(self) -> str:
        return (f"CounterSpec({self.name}, {self.kind} -> "
                f"{self.target or '*'})")


class PerfCounterBank(Structure):
    """A bank of free-running hardware performance counters.

    Inserted by the ``perf_counters`` pass as a real uIR structure: it
    lowers to Chisel/Verilog counter registers and is costed by the
    analytic synthesis model (PMUs aren't free).  It is invisible to
    the simulator's timing — instrumentation taps ready/valid and
    arbitration signals without sitting on any path — so adding a bank
    is behavior-neutral by construction.

    ``sample`` recovers the counter values the hardware would hold
    from a finished run's :class:`repro.sim.stats.SimStats` (the
    analytic stand-in for reading the PMU over the AXI-lite port).
    """

    KIND = "perf_counters"

    def __init__(self, name: str, task: str = "",
                 counters: Sequence[CounterSpec] = ()):
        super().__init__(name)
        self.task = task                     # owning task block ("" = global)
        self.counters: List[CounterSpec] = list(counters)

    def add_counter(self, counter: CounterSpec) -> CounterSpec:
        self.counters.append(counter)
        return counter

    def describe(self) -> str:
        return (f"perf_counters[{len(self.counters)} x 32b"
                f"{', task=' + self.task if self.task else ''}]")

    def sample(self, stats) -> dict:
        """Counter values for one finished run, keyed by counter name.

        ``chan_occupancy_hwm`` is approximated by the producer's
        accumulated ``downstream_full`` stall cycles (a channel that
        never hit its high-water mark never back-pressured);
        ``arbiter_grant`` / ``bank_conflict`` read the per-site
        arbitration counters.
        """
        values = {}
        for c in self.counters:
            if c.kind == "node_fires":
                if c.target == "@task":
                    values[c.name] = stats.invocations.get(self.task, 0)
                else:
                    values[c.name] = stats.node_fires.get(c.target, 0)
            elif c.kind == "chan_occupancy_hwm":
                per_node = stats.node_stalls.get(c.target, {})
                values[c.name] = per_node.get("downstream_full", 0)
            elif c.kind == "bank_conflict":
                values[c.name] = stats.site_stalls.get(
                    f"structure:{c.target}", 0)
            elif c.kind == "arbiter_grant":
                values[c.name] = stats.junction_grants.get(c.target, 0)
        return values


class Junction:
    """N:1 (requests) / 1:N (responses) network between memory nodes of
    one task and one structure (Figure 7)."""

    def __init__(self, name: str, structure: Structure,
                 issue_width: int = 1):
        self.name = name
        self.structure = structure
        self.issue_width = issue_width
        self.clients: List[Node] = []

    def attach(self, node: Node) -> None:
        if node.kind not in ("load", "store"):
            raise GraphError(
                f"junction {self.name}: only load/store nodes attach, "
                f"got {node.kind}")
        if node in self.clients:
            return
        self.clients.append(node)
        node.junction_index = -1  # fixed up by TaskBlock.reindex

    def detach(self, node: Node) -> None:
        self.clients.remove(node)

    @property
    def n_read(self) -> int:
        return sum(1 for n in self.clients if n.kind == "load")

    @property
    def n_write(self) -> int:
        return sum(1 for n in self.clients if n.kind == "store")

    def describe(self) -> str:
        return (f"junction(R={self.n_read}, W={self.n_write}) "
                f"-> {self.structure.name}")

    def __repr__(self) -> str:
        return f"Junction({self.name}, {self.describe()})"
