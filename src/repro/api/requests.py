"""The evaluation wire schema: ``EvaluationRequest`` / ``EvaluationResponse``.

One typed, versioned request/response pair (schema ``repro.eval/v1``)
is the *only* shape an evaluation crosses a process boundary in: the
CLI builds it from flags, :func:`repro.api.execute` consumes it, the
``repro.serve`` daemon ships it over the socket, and the client
library hands it back — so local and remote evaluation are the same
call and serialize identically everywhere.

Design rules:

* **Frozen.**  Both dataclasses are immutable (payload documents are
  held by convention-immutable reference); a request's
  :meth:`~EvaluationRequest.canonical_key` is therefore stable for its
  lifetime and safe to dedup on.
* **Versioned + schema-checked.**  ``to_json`` stamps the schema;
  ``from_json`` rejects unknown schemas and unknown keys instead of
  silently dropping them, so a client/server version skew fails loudly.
* **Deterministic payloads.**  The response's ``evaluation`` document
  (:func:`evaluation_doc`) carries only execution-strategy-independent
  fields — cycles, results, synthesis, verification — never wall-clock
  timings or per-run observability state.  That is what makes the
  serving guarantees testable: a deduped, batch-coalesced, or cached
  execution must produce **bit-identical** payload bytes to a direct
  sequential scalar evaluation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ReproError

EVAL_SCHEMA = "repro.eval/v1"

#: SimParams fields a request may set over the wire.  Everything else
#: (callbacks, validation toggles) is host-local policy.
SIM_FIELDS = (
    "kernel", "max_cycles", "deadlock_window",
    "loop_invocation_window", "decoupled_queue_depth", "observe",
    "trace_capacity", "compile_fallback", "wallclock_timeout",
    "batch", "faults", "validate",
)

#: Fields that may *never* differ between requests coalesced into one
#: batched lane-group (args are the lanes, so they may).  ``name``
#: flows into every lane's evaluation document.
GROUP_FIELDS = ("workload", "source", "variant", "passes", "sim",
                "check", "seed", "name")


def _sim_defaults() -> Dict[str, object]:
    """:data:`SIM_FIELDS` of a default SimParams, as wire values."""
    from ..sim import SimParams
    defaults = SimParams()
    return {name: getattr(defaults, name) for name in SIM_FIELDS}


def _digest(doc: Dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EvaluationRequest:
    """One evaluation, as it crosses a process boundary.

    Exactly one of ``workload`` (built-in workload name) or ``source``
    (MiniC text) names the design.  ``args`` are the root arguments of
    one run (``None`` = the workload defaults); ``args_list`` turns
    the request into a batched ``evaluate_many`` over one lane per
    entry (as does ``sim["batch"]`` with replicated default args).
    ``sim`` may set any field in :data:`SIM_FIELDS`; ``sim["faults"]``
    is a :class:`~repro.sim.FaultPlan` JSON document.
    """

    workload: Optional[str] = None
    source: Optional[str] = None
    variant: str = "base"
    passes: str = ""
    args: Optional[Tuple] = None
    args_list: Optional[Tuple[Tuple, ...]] = None
    sim: Dict[str, object] = field(default_factory=dict)
    check: bool = True
    #: Pseudo-random memory seeding for ``source`` requests (mirrors
    #: ``repro simulate --seed``); a batched request seeds every lane.
    seed: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self):
        if (self.workload is None) == (self.source is None):
            raise ReproError(
                "EvaluationRequest needs exactly one of workload= "
                "or source=")
        sim = dict(self.sim or {})
        unknown = set(sim) - set(SIM_FIELDS)
        if unknown:
            raise ReproError(
                f"unknown sim field(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(SIM_FIELDS)}")
        # A default written out is the same computation as one left
        # out, so it must not change the request's identity.
        defaults = _sim_defaults()
        sim = {k: v for k, v in sim.items() if v != defaults[k]}
        object.__setattr__(self, "sim", sim)
        object.__setattr__(self, "passes", self.passes or "")
        if self.args is not None:
            object.__setattr__(self, "args", tuple(self.args))
        if self.args_list is not None:
            object.__setattr__(
                self, "args_list",
                tuple(tuple(a) for a in self.args_list))
        if self.seed is not None and self.workload is not None:
            raise ReproError(
                "seed= seeds source-request memories; workloads own "
                "their memory images")

    # -- views -------------------------------------------------------------
    @property
    def is_batch(self) -> bool:
        if self.args_list is not None:
            return True
        batch = self.sim.get("batch")
        return bool(batch and batch > 1)

    @property
    def kind(self) -> str:
        return "evaluate_many" if self.is_batch else "evaluate"

    def sim_params(self):
        """Materialize the request's :class:`~repro.sim.SimParams`."""
        from ..sim import FaultPlan, SimParams
        sim = dict(self.sim)
        plan = sim.pop("faults", None)
        if plan is not None:
            plan = FaultPlan.from_json(plan)
        return SimParams(faults=plan, **sim)

    # -- identity ----------------------------------------------------------
    def canonical_key(self) -> str:
        """Content identity of the request — the serving dedup key.
        Two requests with equal keys are guaranteed the same response
        payload, so one execution may answer both."""
        return _digest(self.to_json())

    def group_key(self) -> str:
        """Coalescing identity: requests sharing a group key differ
        only in their root arguments, so they may ride one
        ``simulate_batch`` lane-group (one front-end + one compiled
        circuit for the whole group)."""
        doc = self.to_json()
        return _digest({k: doc.get(k) for k in GROUP_FIELDS})

    @property
    def coalescible(self) -> bool:
        """Whether the serving batcher may fold this request into a
        lane-group: scalar evaluate, no fault plan (fault batches are
        forced sequential anyway), no memory seeding."""
        return (not self.is_batch and self.seed is None
                and self.sim.get("faults") is None)

    # -- wire --------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema": EVAL_SCHEMA,
            "kind": self.kind,
            "workload": self.workload,
            "source": self.source,
            "variant": self.variant,
            "passes": self.passes,
            "args": None if self.args is None else list(self.args),
            "args_list": None if self.args_list is None
            else [list(a) for a in self.args_list],
            "sim": dict(self.sim),
            "check": self.check,
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "EvaluationRequest":
        _check_schema(doc, "EvaluationRequest")
        _check_keys(cls, doc, "EvaluationRequest", extra=("kind",))
        return cls(
            workload=doc.get("workload"),
            source=doc.get("source"),
            variant=doc.get("variant", "base"),
            passes=doc.get("passes", ""),
            args=doc.get("args"),
            args_list=doc.get("args_list"),
            sim=doc.get("sim"),
            check=doc.get("check", True),
            seed=doc.get("seed"),
            name=doc.get("name"))

    def describe(self) -> str:
        target = self.workload or "<source>"
        bits = [target]
        if self.variant != "base":
            bits.append(f"variant={self.variant}")
        if self.passes:
            bits.append(f"passes={self.passes}")
        if self.sim.get("kernel"):
            bits.append(f"kernel={self.sim['kernel']}")
        if self.is_batch:
            lanes = len(self.args_list) if self.args_list \
                else self.sim.get("batch")
            bits.append(f"batch={lanes}")
        return " ".join(bits)


@dataclass(frozen=True)
class EvaluationResponse:
    """What one :class:`EvaluationRequest` produced.

    ``evaluation`` (scalar requests) and ``lanes`` (batched requests)
    hold deterministic :func:`evaluation_doc` documents; ``error`` is
    a PR-3 style error document with a retry ``family``.  ``meta`` is
    the one deliberately non-deterministic slot (wall time, dedup and
    batching provenance) — identity comparisons must ignore it, and
    the tests do.
    """

    status: str                      # "ok" | "error"
    request_key: str = ""
    evaluation: Optional[Dict] = None
    lanes: Optional[List[Dict]] = None
    error: Optional[Dict] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise ReproError(
                f"EvaluationResponse status must be ok|error, "
                f"got {self.status!r}")
        object.__setattr__(self, "meta", dict(self.meta or {}))

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cycles(self) -> Optional[int]:
        if self.evaluation is not None:
            return self.evaluation.get("cycles")
        return None

    def payload(self) -> Dict:
        """The deterministic identity payload: the response minus
        ``meta``.  Dedup subscribers, batch coalescing, and direct
        execution must all agree on these bytes."""
        doc = self.to_json()
        doc.pop("meta")
        return doc

    def to_json(self) -> Dict:
        return {
            "schema": EVAL_SCHEMA,
            "status": self.status,
            "request_key": self.request_key,
            "evaluation": self.evaluation,
            "lanes": self.lanes,
            "error": self.error,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "EvaluationResponse":
        _check_schema(doc, "EvaluationResponse")
        _check_keys(cls, doc, "EvaluationResponse")
        return cls(status=doc.get("status", "error"),
                   request_key=doc.get("request_key", ""),
                   evaluation=doc.get("evaluation"),
                   lanes=doc.get("lanes"),
                   error=doc.get("error"),
                   meta=doc.get("meta"))

    def describe(self) -> str:
        if not self.ok:
            err = self.error or {}
            return f"ERROR[{err.get('error')}]: {err.get('message')}"
        if self.lanes is not None:
            cycles = sorted({d.get("cycles") for d in self.lanes})
            return (f"ok: {len(self.lanes)} lane(s), cycles="
                    f"{cycles[0] if len(cycles) == 1 else cycles}")
        ev = self.evaluation or {}
        bits = [f"{ev.get('cycles')} cyc"]
        if ev.get("time_us") is not None:
            bits.append(f"{ev['time_us']:.2f} us")
        if ev.get("synth"):
            bits.append(f"{ev['synth'].get('alms')} ALMs")
        return "ok: " + ", ".join(bits)


def _check_schema(doc: Mapping, what: str) -> None:
    schema = doc.get("schema")
    if schema != EVAL_SCHEMA:
        raise ReproError(
            f"{what}: unsupported schema {schema!r} "
            f"(this side speaks {EVAL_SCHEMA})")


def _check_keys(cls, doc: Mapping, what: str, extra=()) -> None:
    known = {f.name for f in fields(cls)} | {"schema"} | set(extra)
    unknown = set(doc) - known
    if unknown:
        raise ReproError(
            f"{what} has no field(s) {', '.join(sorted(unknown))} "
            f"(version skew? this side speaks {EVAL_SCHEMA})")


def evaluation_doc(evaluation, *, lane: Optional[int] = None) -> Dict:
    """Deterministic wire document of an :class:`~repro.api.Evaluation`.

    Strategy-independence contract: the document must be identical
    whether the evaluation ran scalar, deduped, batch-coalesced, or
    warm-cached — so it carries no wall-clock numbers and no merged
    batch statistics (``pass_log`` keeps the graph deltas, drops
    ``wall_ms``; ``SimStats`` stays host-local).
    """
    doc: Dict = {
        "name": evaluation.name,
        "workload": evaluation.workload,
        "variant": evaluation.variant,
        "passes": evaluation.passes,
        "verified": evaluation.verified,
        "pass_log": [{"name": r.pass_name, "changed": r.changed,
                      "dN": r.delta_nodes, "dE": r.delta_edges}
                     for r in evaluation.pass_log],
    }
    if evaluation.sim is not None:
        doc["cycles"] = evaluation.sim.cycles
        doc["results"] = list(evaluation.sim.results)
    if evaluation.synth is not None:
        doc["synth"] = evaluation.synth.to_json()
        if evaluation.sim is not None:
            doc["time_us"] = evaluation.time_us
    if lane is not None:
        doc["lane"] = lane
    return doc
