"""Exception hierarchy for the uIR reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single type at the top level.  Sub-hierarchies
mirror the pipeline stages: front-end (parsing / lowering), translation
(software IR -> uIR), graph construction, optimization passes,
simulation, and RTL generation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FrontendError(ReproError):
    """Base class for errors in the MiniC front-end."""


class LexError(FrontendError):
    """Raised when the lexer encounters an unrecognized character."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(FrontendError):
    """Raised on a syntax error in a MiniC program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class LoweringError(FrontendError):
    """Raised when a MiniC AST cannot be lowered to software IR."""


class IRError(ReproError):
    """Raised on malformed software IR (bad operands, missing blocks...)."""


class TypeMismatchError(IRError):
    """Raised when operand types disagree with an operation's signature."""


class InterpreterError(ReproError):
    """Raised when the reference interpreter hits an invalid state."""


class TranslationError(ReproError):
    """Raised when software IR cannot be translated to a uIR graph."""


class GraphError(ReproError):
    """Raised on structurally invalid uIR graphs (dangling ports...)."""


class ValidationError(GraphError):
    """Raised by the uIR validator; carries the list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(f"uIR validation failed: {summary}")


class PassError(ReproError):
    """Raised when a uopt pass cannot be applied to a circuit."""


class SimulationError(ReproError):
    """Raised on simulator misconfiguration or runtime failure."""


class SimulationTimeout(SimulationError):
    """Raised when a run exceeds ``max_cycles`` (still making progress,
    unlike a deadlock — the two are distinct failure artifacts)."""

    def __init__(self, cycle: int, max_cycles: int):
        super().__init__(
            f"exceeded max_cycles={max_cycles} at cycle {cycle}")
        self.cycle = cycle
        self.max_cycles = max_cycles


class WatchdogTimeout(SimulationError):
    """Raised by the wall-clock watchdog: the simulation process itself
    (not the simulated circuit) ran too long.  Carries the last
    simulated cycle so a repro can bound ``max_cycles`` near it."""

    def __init__(self, cycle: int, elapsed: float, limit: float):
        super().__init__(
            f"watchdog: wall-clock {elapsed:.1f}s exceeded "
            f"{limit:.1f}s at cycle {cycle}")
        self.cycle = cycle
        self.elapsed = elapsed
        self.limit = limit


class LaneDivergence(SimulationError):
    """Raised when a batched (lane-vectorized) run feeds a
    lane-divergent value into a control decision — a truth test, an
    address, a loop bound.  Uniform control across lanes is the
    soundness condition of the batched kernel, so this is not an
    error of the *circuit*: the batch driver catches it and deopts to
    independent per-lane runs (see :mod:`repro.core.lanes`)."""


class DeadlockError(SimulationError):
    """Raised when the simulation makes no progress for too long.

    ``diagnostics`` carries the stall-attributed view of the blocked
    state: a list of dicts, one per live task block, each naming the
    blocked nodes and the *cause* each one is waiting on (taxonomy in
    :mod:`repro.sim.observe`) plus queue/park occupancy — so the
    report says *why* nothing can move, not just that nothing did.
    """

    def __init__(self, cycle: int, detail: str = "",
                 diagnostics=None):
        msg = f"simulation deadlocked at cycle {cycle}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.cycle = cycle
        self.diagnostics = list(diagnostics or [])


class PoisonPointError(ReproError):
    """Raised for a design point quarantined by the sweep supervisor:
    evaluating it killed a worker process twice, so retrying it again
    would only keep tearing the pool down.  Carries the point's index
    and how many worker deaths it was implicated in."""

    def __init__(self, message: str, index: int = -1, deaths: int = 0):
        super().__init__(message)
        self.index = index
        self.deaths = deaths


class SweepInterrupted(ReproError):
    """Raised when a design-space sweep is stopped by SIGINT/SIGTERM.

    Not a failure of any point: the supervisor checkpoints the sweep
    journal first, so the message carries the ``--resume`` hint and
    ``sweep_id``/``completed``/``total`` let callers report progress.
    """

    def __init__(self, sweep_id: str, completed: int, total: int,
                 signal_name: str = "SIGINT"):
        super().__init__(
            f"sweep interrupted by {signal_name} after "
            f"{completed}/{total} point(s); resume with: "
            f"repro explore --resume {sweep_id}")
        self.sweep_id = sweep_id
        self.completed = completed
        self.total = total
        self.signal_name = signal_name


class RTLError(ReproError):
    """Raised when uIR cannot be lowered to Chisel/FIRRTL/Verilog."""


class SchedulingError(ReproError):
    """Raised by the HLS baseline when a schedule cannot be formed."""


class WorkloadError(ReproError):
    """Raised when a workload definition or its golden check fails."""


class VerificationError(ReproError):
    """Base class for failures of the verification layer itself."""


class LIViolationError(VerificationError):
    """Raised when a circuit violates latency-insensitivity: its
    results or memory image changed under a fault plan that only
    perturbs timing.  Carries what diverged for the repro bundle."""

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = dict(detail or {})


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------
# Exit code 0 is success and 1 is reserved for behavior mismatches
# reported without an exception (``simulate`` comparing against the
# interpreter).  Every ReproError subclass maps to a distinct nonzero
# code so scripts and CI can branch on the failure *class* without
# parsing tracebacks.  Most-derived class wins (DeadlockError is a
# SimulationError but exits 4, not 6).
EXIT_CODES = {
    "ReproError": 2,          # generic usage / configuration error
    "FrontendError": 2,       # parse family (lex / parse / lowering)
    "IRError": 3,             # malformed IR / graph / validation
    "GraphError": 3,
    "TranslationError": 3,
    "DeadlockError": 4,
    "WorkloadError": 5,       # workload golden-check mismatch
    "SimulationError": 6,     # incl. SimulationTimeout / WatchdogTimeout
    "VerificationError": 7,   # incl. LIViolationError
    "PassError": 8,
    "RTLError": 9,
    "SchedulingError": 9,
    "InterpreterError": 6,
    "PoisonPointError": 11,   # point quarantined after killing workers
    "SweepInterrupted": 130,  # SIGINT/SIGTERM checkpoint (shell idiom)
}


def exit_code_for(exc: BaseException) -> int:
    """Distinct CLI exit code for an exception (most-derived wins)."""
    for cls in type(exc).__mro__:
        code = EXIT_CODES.get(cls.__name__)
        if code is not None:
            return code
    return 1


def error_document(exc: BaseException) -> dict:
    """Machine-readable failure description (``--json-errors``)."""
    doc = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code_for(exc),
    }
    for attr in ("cycle", "line", "column", "max_cycles", "elapsed",
                 "limit", "task", "node"):
        value = getattr(exc, attr, None)
        if value is not None and value != "":
            doc[attr] = value
    diagnostics = getattr(exc, "diagnostics", None)
    if diagnostics:
        doc["diagnostics"] = diagnostics
    violations = getattr(exc, "violations", None)
    if violations:
        doc["violations"] = violations
    detail = getattr(exc, "detail", None)
    if detail:
        doc["detail"] = detail
    return doc


# ---------------------------------------------------------------------------
# Retry classification (sweep supervision)
# ---------------------------------------------------------------------------
# The sweep supervisor retries only failures whose cause lives in the
# *environment* — a worker killed by the OS, a wall-clock watchdog on a
# loaded box, a filesystem hiccup.  Failures that are a property of the
# design point itself (a deadlock, an LI violation, a pass that cannot
# apply, a parse error) are deterministic: re-running them burns budget
# to reproduce the same document, so they are never retried.

#: Error names (exception class names as they appear in error
#: documents) whose failures are considered transient.
TRANSIENT_ERROR_NAMES = frozenset({
    "WatchdogTimeout",        # wall-clock limit on a loaded machine
    "WorkerDeath",            # worker process died (OOM, signal)
    "BrokenProcessPool",
    "SupervisorTimeout",      # supervisor-side per-point deadline
    "OSError", "IOError", "FileNotFoundError", "PermissionError",
    "BlockingIOError", "InterruptedError", "BrokenPipeError",
    "ConnectionError", "ConnectionResetError", "ConnectionRefusedError",
    "TimeoutError", "EOFError", "MemoryError",
})


def error_family(name: str) -> str:
    """Retry family of an error *name*: ``"transient"`` failures may
    be retried with backoff; ``"deterministic"`` ones never are."""
    return "transient" if name in TRANSIENT_ERROR_NAMES \
        else "deterministic"


def family_for(exc: BaseException) -> str:
    """Retry family of a live exception (isinstance-aware, so an
    ``errno``-carrying OSError subclass classifies correctly even if
    its name is not in the table)."""
    if isinstance(exc, WatchdogTimeout):
        return "transient"
    if isinstance(exc, ReproError):
        return "deterministic"
    if isinstance(exc, (OSError, TimeoutError, EOFError, MemoryError,
                        ConnectionError)):
        return "transient"
    return error_family(type(exc).__name__)


def unexpected_error_document(exc: BaseException,
                              traceback_tail: int = 8) -> dict:
    """Structured document for a *non*-ReproError escaping a worker.

    The blanket ``except Exception`` in sweep workers must hand the
    supervisor something it can classify and ``repro sweeps show`` can
    display: the exception name and message, the retry family, and the
    tail of the traceback (the last ``traceback_tail`` lines — where
    the raise actually happened)."""
    import traceback

    lines = traceback.format_exception(type(exc), exc,
                                       exc.__traceback__)
    tail = "".join(lines).rstrip("\n").split("\n")[-traceback_tail:]
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": 1,
        "family": family_for(exc),
        "traceback": tail,
    }


def failure_document(exc: BaseException) -> dict:
    """Error document of any failure, with its retry ``family``: a
    :class:`ReproError`'s :func:`error_document`, or the traceback
    tail of anything else (:func:`unexpected_error_document`)."""
    if not isinstance(exc, ReproError):
        return unexpected_error_document(exc)
    doc = error_document(exc)
    doc["family"] = family_for(exc)
    return doc
