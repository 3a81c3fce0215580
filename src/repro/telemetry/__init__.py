"""Cross-layer telemetry: span tracing, metrics, and the run ledger.

The toolchain's observability substrate (DESIGN.md section 10).  Three
cooperating pieces:

* :mod:`repro.telemetry.tracer` — nested wall-clock spans over the
  Pipeline stages, uopt passes, simulation runs, and DSE sweeps;
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms
  (cache hit rates, batch modes, fuzz verdicts) with Prometheus-text
  and JSON exports;
* :mod:`repro.telemetry.ledger` — a persistent JSONL journal under
  ``.repro/runs/`` appending one atomic record per CLI invocation,
  browsable with ``repro runs list|show|diff``.

This module owns the **process-global switch**.  Telemetry is *off*
by default: :func:`tracer` / :func:`metrics` return shared null
singletons whose every method is a no-op, so instrumented call sites
cost one function call and nothing else.  ``repro --telemetry ...``
(or ``REPRO_TELEMETRY=1``) flips the switch for one process via
:func:`enable`.

Instrumentation naming scheme (keep it grep-able):

* spans — ``pipeline.<stage>`` for Pipeline stages (``frontend``,
  ``optimize``, ``simulate``, ``verify``, ``synthesize``),
  ``opt.<pass>`` per uopt pass, ``sim.run`` / ``sim.batch`` per
  simulation, ``dse.explore`` / ``fuzz.run`` for sweep drivers;
* metrics — dotted ``<layer>.<noun>_<verb-or-unit>``:
  ``dse.cache.object_hits``, ``sim.batch.runs``,
  ``fuzz.violations``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .ledger import (  # noqa: F401
    LEDGER_SCHEMA,
    RECORD_KEYS,
    RunLedger,
    build_record,
    diff_records,
    new_run_id,
    runs_dir,
)
from .metrics import (  # noqa: F401
    METRICS_SCHEMA,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from .tracer import (  # noqa: F401
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    Tracer,
)

ENV_FLAG = "REPRO_TELEMETRY"


class _State:
    """Process-global telemetry state (one slot, swapped atomically)."""

    __slots__ = ("tracer", "metrics", "enabled", "sim_traces",
                 "fingerprints", "annotations")

    def __init__(self):
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.enabled = False
        #: ``(label, events, span, cycles)`` tuples for the unified
        #: Perfetto export (see Tracer.perfetto_trace).
        self.sim_traces: List[Tuple] = []
        self.fingerprints: List[str] = []
        self.annotations: Dict[str, object] = {}


_STATE = _State()


def enabled() -> bool:
    return _STATE.enabled


def env_requests_telemetry() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0", "false", "off")


def tracer():
    """The active tracer (a no-op singleton while disabled)."""
    return _STATE.tracer


def metrics():
    """The active metrics registry (a no-op singleton while disabled)."""
    return _STATE.metrics


def enable(fresh: bool = True) -> Tuple[Tracer, MetricsRegistry]:
    """Turn telemetry on for this process; returns (tracer, metrics).

    ``fresh=False`` keeps an already-enabled session's collectors
    instead of replacing them (idempotent re-enable).
    """
    if _STATE.enabled and not fresh:
        return _STATE.tracer, _STATE.metrics
    _STATE.tracer = Tracer()
    _STATE.metrics = MetricsRegistry()
    _STATE.sim_traces = []
    _STATE.fingerprints = []
    _STATE.annotations = {}
    _STATE.enabled = True
    return _STATE.tracer, _STATE.metrics


def disable() -> None:
    """Back to the zero-cost null collectors."""
    _STATE.tracer = NULL_TRACER
    _STATE.metrics = NULL_METRICS
    _STATE.sim_traces = []
    _STATE.fingerprints = []
    _STATE.annotations = {}
    _STATE.enabled = False


# -- run-level context -------------------------------------------------------

def annotate(key: str, value) -> None:
    """Attach one run-level fact (workload name, kernel, point count)
    to the eventual ledger record.  No-op while disabled."""
    if _STATE.enabled:
        _STATE.annotations[str(key)] = value


def note_fingerprint(fingerprint: str) -> None:
    """Record a circuit fingerprint this run touched (deduplicated,
    order-preserving)."""
    if _STATE.enabled and fingerprint and \
            fingerprint not in _STATE.fingerprints:
        _STATE.fingerprints.append(fingerprint)


def attach_sim_trace(label: str, observer, span, cycles: int) -> None:
    """Register one simulation's cycle-level trace for the unified
    Perfetto export.  ``observer`` is a
    :class:`repro.sim.observe.Observability` with tracing on; its ring
    is snapshotted now (the observer may be reused or dropped later)."""
    if not _STATE.enabled:
        return
    _STATE.sim_traces.append((label, observer.events(), span, cycles))


def perfetto_trace() -> Dict:
    """Unified trace document: pipeline spans + registered sim traces."""
    return _STATE.tracer.perfetto_trace(_STATE.sim_traces)


def write_perfetto(path: str) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(perfetto_trace(), fh)


def collect_record(*, command: str, argv: List[str], status: str,
                   exit_code: int, wall_s: float, started: float,
                   error: Optional[Dict] = None) -> Dict:
    """Build the ledger record for the current telemetry session."""
    tr = _STATE.tracer
    spans = [sp.to_json() for sp in tr.finished()[:500]]
    passes = [
        {"pass": sp.name.split(".", 1)[1] if "." in sp.name
         else sp.name,
         "wall_ms": round(sp.wall_s * 1e3, 3),
         **{k: v for k, v in sp.attrs.items()
            if isinstance(v, (int, float, bool, str))}}
        for sp in tr.finished() if sp.category == "opt"
    ]
    return build_record(
        run_id=new_run_id(), command=command, argv=argv,
        status=status, exit_code=exit_code, wall_s=wall_s,
        started=started, stages=tr.stage_durations(), spans=spans,
        passes=passes, fingerprints=list(_STATE.fingerprints),
        annotations=dict(_STATE.annotations),
        metrics=_STATE.metrics.snapshot(), error=error)
