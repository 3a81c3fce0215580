"""Cycle-level simulator for uIR circuits.

The simulator executes the uIR graph directly — tokens over registered
ready/valid channels, pipelined function units, banked memory
structures with port arbitration, and a task-queue runtime with
execution tiles — so the cycle counts it reports are the cycle counts
the paper's generated RTL would exhibit (see DESIGN.md, substitution
table).  It is also a *functional* executor: results are checked
against the reference interpreter in the test suite.
"""

from .engine import (BatchResult, SimParams, SimResult,  # noqa: F401
                     Simulator, simulate, simulate_batch)
from .faults import FaultInjector, FaultPlan  # noqa: F401
from .stats import SimStats  # noqa: F401
