"""Parallel design-space exploration over (pass-pipeline x SimParams)
points.

The paper's pitch is that uIR turns microarchitecture into a
*searchable* space; this engine does the searching at scale — and
keeps searching when the environment misbehaves:

* points come from a :class:`~repro.dse.space.DesignSpace` (grid or
  seeded random sample) and are mapped to pass-spec strings by a
  pipeline template — only picklable primitives ever cross process
  boundaries;
* evaluation fans out over the process pool of
  :class:`repro.supervise.SupervisedPool`, whose policy the serve
  daemon shares: a dying worker (OOM, signal) breaks the pool, so it
  is respawned and the in-flight points re-run as isolated suspects;
  transient failures (worker death, wall-clock watchdogs,
  ``OSError``) retry with exponential backoff + jitter up to
  :class:`RetryPolicy` limits, while deterministic error families
  (deadlock, LI violation, pass errors...) are never retried; a point
  implicated in **two** worker deaths is quarantined as poison
  (:class:`~repro.errors.PoisonPointError`, exit code 11);
* every sweep can write a :class:`~repro.dse.journal.SweepJournal` —
  an append-only JSONL record of planned points, TTL leases,
  completions and failures — so ``SIGINT``/``SIGTERM`` checkpoint the
  sweep instead of losing it (:class:`~repro.errors.SweepInterrupted`
  carries the ``--resume`` hint), :func:`resume` completes only the
  missing points with a byte-identical report, and multiple processes
  can shard one journal by claiming leases;
* every point is an :class:`~repro.api.EvaluationRequest` evaluated by
  :func:`repro.api.execute` on the circuit as built — the evaluator
  behind ``repro simulate`` and the serve daemon — so a design point
  gets the same cycle count whichever entry point asked for it;
* results land in a persistent :class:`~repro.dse.cache.ResultCache`;
  warm re-runs are served from the request index without touching the
  front-end, and overlapping sweeps share objects by content;
* surviving points feed an n-objective Pareto-frontier extraction
  over latency / area / power metrics.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Union

from .. import telemetry
from ..api import EvaluationRequest, build_front, execute
from ..core.serialize import circuit_fingerprint
from ..errors import ReproError, SweepInterrupted, failure_document
from ..opt import parse_pass_specs, spec_to_string
from ..sim import SimParams
from ..supervise import (RetryPolicy, SupervisedPool, Task,
                         default_workers, maybe_chaos)
from ..workloads import get_workload
from .cache import (
    COUNT_KEYS,
    STORED_FIELDS,
    ResultCache,
    content_key,
    request_key,
    sim_key_dict,
)
from .journal import (
    DEFAULT_LEASE_TTL,
    DEFAULT_SWEEPS_DIR,
    PointState,
    SweepJournal,
    new_sweep_id,
    point_key,
    resolve_sweep,
)
from .space import DesignSpace, render_pipeline

EXPLORE_SCHEMA = "repro.explore/v2"

#: Metrics a point exposes for objectives / reporting, all
#: minimized.  Extraction is from the wire evaluation fields a point
#: keeps, so cache hits, fresh runs and served points are
#: indistinguishable.
METRICS = ("time_us", "cycles", "alms", "regs", "dsps", "fpga_mw",
           "asic_area_kum2", "asic_mw")

#: Durability counters an :class:`ExploreReport` always carries (all
#: zero for an uneventful sweep).
DURABILITY_KEYS = ("retries", "worker_deaths", "timeouts",
                   "quarantined", "lease_reclaims", "resumed")


@dataclass
class PointResult:
    """Outcome of one design point (fresh, cached, resumed, served, or
    failed).

    An ok point holds the wire outcome of its evaluation — ``cycles``,
    ``verified`` and ``synth`` — and nothing host-local (``SimStats``
    stays with the process that simulated, as on the wire).  The
    provenance fields ``source``, ``key``, ``fingerprint``, ``wall_s``
    and ``attempts`` say how the outcome was obtained, not what it is.
    """

    index: int
    params: Dict[str, object]
    pass_spec: Optional[str]
    status: str = "failed"              # "ok" | "failed"
    #: "fresh" | "cache" (content hit in a worker) | "cache-index"
    #: (request hit in the parent; front-end never ran) | "journal"
    #: (restored from a sweep journal on resume).
    source: str = "fresh"
    key: str = ""                       # content key, when known
    fingerprint: str = ""               # circuit fingerprint, as built
    cycles: Optional[int] = None
    verified: Optional[bool] = None
    synth: Optional[Dict] = None        # SynthesisReport.to_json()
    error: Optional[Dict] = None        # repro.errors.error_document
    wall_s: float = 0.0
    attempts: int = 1                   # evaluation tries, 1-based

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cached(self) -> bool:
        return self.source in ("cache", "cache-index")

    @property
    def quarantined(self) -> bool:
        return (self.error or {}).get("error") == "PoisonPointError"

    def settle(self, evaluation: Optional[Dict], *, source: str,
               error: Optional[Dict] = None) -> None:
        """Record an outcome: the wire evaluation document of an ok
        evaluation (or a stored object, which keeps the same fields),
        else ``error``.  ``explore()``, ``resume()`` and the daemon's
        explore verb all settle points here, so a point reads the same
        whichever path evaluated it."""
        self.source = source
        if evaluation is None:
            self.status = "failed"
            self.error = error
            return
        self.status = "ok"
        self.cycles = evaluation["cycles"]
        self.verified = evaluation.get("verified")
        self.synth = evaluation["synth"]

    def metric(self, name: str) -> Optional[float]:
        if not self.ok:
            return None
        if name == "cycles":
            return float(self.cycles)
        if name == "time_us":
            return self.cycles / self.synth["fpga_mhz"]
        if name in ("alms", "regs", "dsps", "fpga_mw",
                    "asic_area_kum2", "asic_mw"):
            return float(self.synth[name])
        raise ReproError(
            f"unknown objective {name!r}; known: {', '.join(METRICS)}")

    def to_json(self) -> Dict:
        doc: Dict = {
            "index": self.index,
            "params": dict(self.params),
            "passes": self.pass_spec,
            "status": self.status,
            "source": self.source,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "wall_s": round(self.wall_s, 4),
            "attempts": self.attempts,
        }
        if self.ok:
            doc.update(cycles=self.cycles, verified=self.verified,
                       time_us=self.metric("time_us"),
                       alms=self.synth["alms"],
                       fpga_mhz=self.synth["fpga_mhz"],
                       fpga_mw=self.synth["fpga_mw"],
                       synth=self.synth)
        else:
            doc["error"] = self.error
        return doc

    @classmethod
    def from_json(cls, doc: Dict) -> "PointResult":
        """Rebuild a point from its :meth:`to_json` document (journal
        restores — a resumed point is byte-identical to the run that
        produced it — and served sweeps).  A ``stats`` entry, which
        ``repro.explore/v1`` points carried, is ignored."""
        point = cls(index=doc["index"],
                    params=dict(doc.get("params") or {}),
                    pass_spec=doc.get("passes"))
        point.status = doc.get("status", "failed")
        point.source = doc.get("source", "fresh")
        point.key = doc.get("key", "")
        point.fingerprint = doc.get("fingerprint", "")
        point.wall_s = doc.get("wall_s", 0.0)
        point.attempts = doc.get("attempts", 1)
        if point.ok:
            point.cycles = doc["cycles"]
            point.verified = doc.get("verified")
            point.synth = doc.get("synth")
        else:
            point.error = doc.get("error")
        return point

    def describe(self) -> str:
        label = " ".join(f"{k}={v}" for k, v in self.params.items())
        if self.ok:
            return (f"[{self.index}] {label}: {self.cycles} cyc, "
                    f"{self.metric('time_us'):.2f} us, "
                    f"{self.synth['alms']} ALMs ({self.source})")
        err = (self.error or {}).get("error", "?")
        tag = "QUARANTINED" if self.quarantined else "FAILED"
        retry = f" after {self.attempts} attempts" \
            if self.attempts > 1 else ""
        return f"[{self.index}] {label}: {tag}[{err}]{retry}"


def pareto_frontier(points: Sequence[PointResult],
                    objectives: Sequence[str]) -> List[int]:
    """Indices of non-dominated ok points, sorted by the first
    objective.  All objectives are minimized."""
    rows = [(p.index, [p.metric(o) for o in objectives])
            for p in points if p.ok]
    front: List[tuple] = []
    for index, vec in rows:
        dominated = False
        for _, other in rows:
            if other is vec:
                continue
            if all(o <= v for o, v in zip(other, vec)) and \
                    any(o < v for o, v in zip(other, vec)):
                dominated = True
                break
        if not dominated:
            front.append((index, vec))
    front.sort(key=lambda item: item[1])
    return [index for index, _ in front]


@dataclass
class ExploreReport:
    """Everything one sweep produced, JSON-able."""

    workload: str
    variant: str
    template: Optional[str]
    objectives: List[str]
    sim: Dict[str, object]
    workers: int
    points: List[PointResult] = field(default_factory=list)
    wall_s: float = 0.0
    #: Aggregated :attr:`ResultCache.counts` over the parent process
    #: and every worker (empty when the sweep ran uncached).
    cache: Dict[str, int] = field(default_factory=dict)
    #: Sweep-journal id when the sweep was journaled ("" otherwise).
    sweep_id: str = ""
    #: Fault-tolerance counters (see :data:`DURABILITY_KEYS`).
    durability: Dict[str, int] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        pts = self.points
        return {
            "points": len(pts),
            "ok": sum(p.ok for p in pts),
            "failed": sum(not p.ok for p in pts),
            "fresh": sum(p.source == "fresh" and p.ok for p in pts),
            "cache_hits": sum(p.cached and p.ok for p in pts),
            "resumed": sum(p.source == "journal" for p in pts),
            "quarantined": sum(p.quarantined for p in pts),
        }

    @property
    def pareto(self) -> List[int]:
        return pareto_frontier(self.points, self.objectives)

    def point(self, index: int) -> PointResult:
        for p in self.points:
            if p.index == index:
                return p
        raise ReproError(f"no point with index {index}")

    def to_json(self) -> Dict:
        return {
            "schema": EXPLORE_SCHEMA,
            "workload": self.workload,
            "variant": self.variant,
            "template": self.template,
            "objectives": list(self.objectives),
            "sim": dict(self.sim),
            "workers": self.workers,
            "wall_s": round(self.wall_s, 4),
            "counts": self.counts,
            "cache": dict(self.cache),
            "sweep_id": self.sweep_id,
            "durability": dict(self.durability),
            "pareto": self.pareto,
            "points": [p.to_json() for p in self.points],
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "ExploreReport":
        """Rebuild a report from :meth:`to_json` (a served sweep)."""
        return cls(points=[PointResult.from_json(p) for p in doc["points"]],
                   **{k: doc[k] for k in (
                       "workload", "variant", "template", "objectives",
                       "sim", "workers", "wall_s", "cache", "sweep_id",
                       "durability")})

    def summary(self) -> str:
        c = self.counts
        line = (f"{self.workload}: {c['points']} points "
                f"({c['ok']} ok, {c['failed']} failed, "
                f"{c['cache_hits']} cached, {c['fresh']} fresh) "
                f"in {self.wall_s:.2f}s with {self.workers} worker(s); "
                f"pareto: {len(self.pareto)} point(s)")
        if self.cache:
            k = self.cache
            line += (f"; cache: {k.get('object_hits', 0)} obj hits / "
                     f"{k.get('object_misses', 0)} misses / "
                     f"{k.get('object_corrupt', 0)} corrupt, "
                     f"{k.get('index_hits', 0)} index hits")
        d = self.durability
        if d and any(d.values()):
            line += ("; durability: "
                     + ", ".join(f"{v} {k.replace('_', ' ')}"
                                 for k, v in d.items() if v))
        if self.sweep_id:
            line += f"; sweep {self.sweep_id}"
        return line


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _evaluate_group(payloads: Sequence[Dict]) -> List[Dict]:
    """Evaluate a group of points sharing one pass spec in a worker.

    Each payload carries one point's :class:`EvaluationRequest`
    document; the group shares a front end (only ``sim.*`` axes vary),
    so MiniC -> uIR -> uopt runs ONCE per group (:func:`build_front`)
    and every point is evaluated by :func:`repro.api.execute` on a
    fork of it — the evaluator, and the circuit as built, that
    ``repro simulate`` and the serve daemon use.  What stays here is
    sweep-specific: the content-store lookup under the group's circuit
    fingerprint.  A point the result cache answers simulates nothing,
    so it compiles nothing either.

    Returns one plain dict per payload (never raises): ``{"index",
    "ok", "source", "key", "fingerprint", "doc" | "error", "wall_s"}``,
    where ``doc`` holds the :data:`~repro.dse.cache.STORED_FIELDS` of
    the evaluation.  Error documents always carry a retry ``family``
    and — for unexpected exceptions — the traceback tail, so the
    supervisor can classify them and ``repro sweeps show`` can display
    them.  ``wall_s`` is the group's front-end time split evenly
    across its points plus the point's own time.
    """
    t0 = time.perf_counter()
    outs: List[Dict] = [
        {"index": p["index"], "ok": False, "source": "fresh",
         "key": "", "fingerprint": "", "wall_s": 0.0}
        for p in payloads]
    try:
        requests = [EvaluationRequest.from_json(p["request"])
                    for p in payloads]
        first = requests[0]
        w = get_workload(first.workload)
        args = list(w.args_for(first.variant))
        front = build_front(first)
        fingerprint = circuit_fingerprint(front.circuit)
    except Exception as exc:  # noqa: BLE001 - sweep must survive
        doc = failure_document(exc)
        share = (time.perf_counter() - t0) / len(payloads)
        for out in outs:
            out.update(error=dict(doc), wall_s=share)
        return outs
    front_share = (time.perf_counter() - t0) / len(payloads)

    cache = ResultCache(payloads[0]["cache_root"]) \
        if payloads[0].get("cache_root") else None
    for payload, request, out in zip(payloads, requests, outs):
        t1 = time.perf_counter()
        maybe_chaos(payload["index"])
        out["fingerprint"] = fingerprint
        try:
            params = request.sim_params()
            ckey = content_key(fingerprint, w.name, request.variant,
                               args, sim_key_dict(params), request.check)
            out["key"] = ckey
            doc = cache.get(ckey) if cache is not None else None
            if doc is not None:
                out.update(ok=True, source="cache", doc=doc)
            else:
                response = execute(request, pipeline=front.fork())
                if response.ok:
                    doc = {k: response.evaluation[k]
                           for k in STORED_FIELDS}
                    if cache is not None:
                        cache.put(ckey, dict(doc, fingerprint=fingerprint))
                    out.update(ok=True, doc=doc)
                else:
                    out["error"] = response.error
        except Exception as exc:  # noqa: BLE001 - sweep must survive
            out["error"] = failure_document(exc)
        out["wall_s"] = front_share + time.perf_counter() - t1
    if cache is not None:
        # Ship the worker-local cache tallies home: metrics registries
        # don't cross process boundaries, so the coordinating parent
        # aggregates these into the explore report and telemetry.
        outs[-1]["cache_counts"] = dict(cache.counts)
    return outs


# ---------------------------------------------------------------------------
# Parent side: the sweep's glue around the supervised pool
# ---------------------------------------------------------------------------

PipelineTemplate = Union[str, Callable[[Dict], str]]


class _PointTask(Task):
    """A point in the pool: the worker payload plus the parent-side
    point it settles, its request-index key and its journal key."""

    __slots__ = ("point", "rkey", "jkey")

    def __init__(self, payload: Dict, point: PointResult,
                 rkey: Optional[str], jkey: str):
        super().__init__(payload)
        self.point = point
        self.rkey = rkey
        self.jkey = jkey


class _Sweep:
    """One sweep's glue around the shared
    :class:`~repro.supervise.SupervisedPool` (the supervision policy
    lives there): settling points, the cache's request index, journal
    leases with polling of points another process holds, and the
    SIGINT/SIGTERM checkpoint."""

    def __init__(self, *, journal: Optional[SweepJournal],
                 lease_ttl: float, cache: Optional[ResultCache],
                 progress, total: int):
        self.journal = journal
        self.lease_ttl = lease_ttl
        self.cache = cache
        self.progress = progress
        self.total = total
        self.owner = f"{os.getpid()}-{os.urandom(2).hex()}"
        self.results: Dict[int, PointResult] = {}
        self.cache_counts: Dict[str, int] = \
            dict.fromkeys(COUNT_KEYS, 0) if cache is not None else {}
        self.durability: Dict[str, int] = dict.fromkeys(DURABILITY_KEYS,
                                                        0)
        self.external: Dict[str, _PointTask] = {}  # leased elsewhere
        self.interrupted: Optional[str] = None
        self.pool: Optional[SupervisedPool] = None
        self._ext_poll = 0.0

    # -- settlement --------------------------------------------------------
    def emit(self, point: PointResult) -> None:
        self.results[point.index] = point
        if self.progress:
            self.progress(point)

    def restore(self, point: PointResult, ps: PointState) -> None:
        """Settle ``point`` from its journal record."""
        if ps.status == "done" and ps.doc:
            restored = PointResult.from_json(ps.doc)
            restored.index = point.index
            restored.params = point.params
            restored.source = "journal"
            self.emit(restored)
        else:
            point.status = "failed"
            point.error = ps.error or {
                "error": "ReproError",
                "message": "journal records a failure with no "
                           "document", "exit_code": 2}
            point.source = "journal"
            point.attempts = max(1, ps.attempts)
            self.emit(point)
        self.durability["resumed"] += 1

    def settle(self, task: _PointTask, out: Dict) -> None:
        # Worker-local cache tallies ride home on the last out: metrics
        # registries don't cross process boundaries.
        for key, n in (out.pop("cache_counts", None) or {}).items():
            self.cache_counts[key] = self.cache_counts.get(key, 0) + n
        if not out.get("ok"):
            self.fail(task, out.get("error") or {})
            return
        point = task.point
        point.key = out.get("key", "")
        point.fingerprint = out.get("fingerprint", "")
        point.wall_s = out.get("wall_s", 0.0)
        point.attempts = task.attempts
        point.settle(out["doc"], source=out["source"])
        if self.cache is not None and task.rkey:
            self.cache.record_request(task.rkey, point.key)
        self.emit(point)
        if self.journal is not None:
            self.journal.record_done(task.jkey, self.owner,
                                     point.to_json())

    def fail(self, task: _PointTask, doc: Dict) -> None:
        point = task.point
        point.status = "failed"
        point.error = doc
        point.attempts = task.attempts
        self.emit(point)
        if self.journal is None:
            return
        if doc.get("family") == "poison":
            self.journal.record_quarantine(task.jkey, doc["deaths"], doc)
        else:
            self.journal.record_error(task.jkey, self.owner,
                                      task.attempts, doc, final=True)

    def retry(self, task: _PointTask, doc: Dict) -> None:
        if self.journal is not None:
            self.journal.record_error(task.jkey, self.owner,
                                      task.attempts, doc, final=False)

    # -- journal leases ----------------------------------------------------
    def admit(self, tasks: List[_PointTask]) -> List[_PointTask]:
        """Take journal leases for a chunk; returns the tasks this
        process owns (settled ones are restored, lost races and live
        foreign leases are parked as external)."""
        if self.journal is None:
            return tasks
        now = time.time()
        pre = self.journal.state()
        claimable: List[_PointTask] = []
        for task in tasks:
            ps = pre.points.get(task.jkey)
            if ps is None:
                claimable.append(task)
                continue
            if ps.settled:
                self.restore(task.point, ps)
                continue
            owner = ps.lease_owner(now)
            if owner is not None and owner != self.owner:
                self.external[task.jkey] = task
                continue
            if ps.claims and owner is None:
                self._reclaimed()
            claimable.append(task)
        if not claimable:
            return []
        self.journal.claim([t.jkey for t in claimable], self.owner,
                           self.lease_ttl)
        post = self.journal.state()
        mine: List[_PointTask] = []
        for task in claimable:
            ps = post.points.get(task.jkey)
            if ps is None or ps.lease_owner(now) == self.owner:
                mine.append(task)
            else:
                self.external[task.jkey] = task
        return mine

    def _reclaimed(self) -> None:
        self.durability["lease_reclaims"] += 1
        telemetry.metrics().counter("dse.lease_reclaims").inc()

    def _poll_external(self) -> None:
        """Check points leased to other processes: restore the ones
        they settled; reclaim the ones whose lease expired."""
        if not self.external:
            return
        now_m = time.monotonic()
        if now_m - self._ext_poll < 0.2:
            return
        self._ext_poll = now_m
        state = self.journal.state()
        now = time.time()
        for key, task in list(self.external.items()):
            ps = state.points.get(key)
            if ps is None:
                del self.external[key]
            elif ps.settled:
                self.restore(task.point, ps)
                del self.external[key]
            elif ps.lease_owner(now) is None:
                del self.external[key]
                self._reclaimed()
                self.pool.put([task])

    # -- driving -----------------------------------------------------------
    def _tick(self) -> bool:
        """Once per pool round: checkpoint on a signal while points
        remain, poll foreign leases; True while points leased
        elsewhere are unsettled."""
        if self.interrupted and len(self.results) < self.total:
            # Only journaled sweeps route signals here.
            self.journal.record_interrupt(self.interrupted)
            raise SweepInterrupted(self.journal.sweep_id,
                                   len(self.results), self.total,
                                   self.interrupted)
        self._poll_external()
        return bool(self.external)

    def run(self, chunks: List[List[_PointTask]], *, workers: int,
            retry: RetryPolicy, point_timeout: Optional[float]) -> None:
        """Evaluate ``chunks`` in worker processes, or in this thread
        when ``workers <= 1`` or there is only one chunk."""
        pooled = workers > 1 and len(chunks) > 1
        size = min(workers, len(chunks)) if pooled else 1
        self.pool = SupervisedPool(
            _evaluate_group, client=self, workers=size,
            executor="process" if pooled else "inline",
            depth=2 * size if pooled else 1, retry=retry,
            timeout=point_timeout, counters=self.durability,
            metric_prefix="dse")
        for chunk in chunks:
            self.pool.put(chunk)
        self.pool.run(self._tick)

    def install_signals(self):
        """Route SIGINT/SIGTERM to a checkpoint flag (main thread
        only; returns the restore map)."""
        if threading.current_thread() is not threading.main_thread():
            return {}
        saved = {}

        def handler(signum, _frame):
            try:
                self.interrupted = signal.Signals(signum).name
            except ValueError:
                self.interrupted = f"signal {signum}"

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                saved[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        return saved


# ---------------------------------------------------------------------------
# Planning + execution
# ---------------------------------------------------------------------------

def plan_points(workload_name: str, params_list: Sequence[Dict],
                pipeline: PipelineTemplate, sim: SimParams, *,
                variant: str = "base", check: bool = True) -> List[Dict]:
    """Plan a sweep: params -> pass spec + per-point sim + request.

    One planned row per point: ``{index, params, pass_spec, sim, key,
    request, _point, _plan_error}``.  ``sim`` is the result-determining
    subset of ``sim`` (:func:`~repro.dse.cache.sim_key_dict`) with the
    point's ``sim.*`` axes applied; ``request`` is the
    :class:`EvaluationRequest` that evaluates the point.  Planning
    failures (bad template, unknown ``sim.*`` axis) are recorded as
    deterministic point errors rather than raised, so one bad axis
    value doesn't sink the sweep.  Shared by :func:`explore` and the
    ``repro.serve`` daemon, which submits each row's request to its
    queue.
    """
    base_sim = sim_key_dict(sim)
    planned: List[Dict] = []
    for index, params in enumerate(params_list):
        point = PointResult(index=index, params=params, pass_spec=None)
        sim_over = {str(k)[4:]: v for k, v in params.items()
                    if str(k).startswith("sim.")}
        point_sim = dict(base_sim, **sim_over)
        request = plan_error = None
        try:
            if callable(pipeline):
                raw_spec = pipeline(params)
            else:
                raw_spec = render_pipeline(pipeline, params)
            specs = parse_pass_specs(raw_spec)
            point.pass_spec = spec_to_string(specs)
            unknown = set(sim_over) - set(base_sim)
            if unknown:
                raise ReproError(
                    f"unknown sim.* axis(es): "
                    f"{', '.join(sorted(unknown))}; known: "
                    f"{', '.join(sorted(base_sim))}")
            request = _point_request(workload_name, variant,
                                     point.pass_spec, point_sim,
                                     sim.wallclock_timeout, check)
        except ReproError as exc:
            plan_error = point.error = failure_document(exc)
        planned.append({
            "index": index,
            "params": params,
            "pass_spec": point.pass_spec,
            "sim": point_sim,
            "key": point_key(workload_name, variant, params,
                             point.pass_spec, point_sim),
            "request": request,
            "_point": point,
            "_plan_error": plan_error,
        })
    return planned


def _point_request(workload: str, variant: str, pass_spec: str,
                   sim: Dict[str, object],
                   wallclock_timeout: Optional[float],
                   check: bool) -> EvaluationRequest:
    """The request that evaluates one planned point."""
    return EvaluationRequest(
        workload=workload, variant=variant, passes=pass_spec,
        sim=dict(sim, wallclock_timeout=wallclock_timeout),
        check=check)


def explore(workload, space: Union[DesignSpace, Iterable[Dict]], *,
            pipeline: PipelineTemplate,
            variant: str = "base",
            sim: Optional[SimParams] = None,
            workers: Optional[int] = None,
            cache: Union[None, str, ResultCache] = None,
            objectives: Sequence[str] = ("time_us", "alms"),
            check: bool = True,
            progress: Optional[Callable[[PointResult], None]] = None,
            journal: Union[None, str, SweepJournal] = None,
            sweep_id: Optional[str] = None,
            retry: Optional[RetryPolicy] = None,
            point_timeout: Optional[float] = None,
            lease_ttl: float = DEFAULT_LEASE_TTL,
            ) -> ExploreReport:
    """Sweep ``space`` for ``workload`` and return the report.

    ``pipeline`` is a template string (see
    :func:`repro.dse.space.render_pipeline`) or a callable mapping a
    point's params to a pass-spec string.  ``cache`` is a directory
    path or :class:`ResultCache`; None disables caching.  ``workers``
    defaults to ``min(4, cpu_count)``; 0/1 evaluates serially
    in-process.

    ``journal`` — a sweeps directory path or :class:`SweepJournal` —
    makes the sweep durable: planned points, leases, completions and
    failures are appended to
    ``<journal>/<sweep_id>/journal.jsonl``; SIGINT/SIGTERM then
    checkpoint instead of losing work, :func:`resume` completes only
    the missing points, and concurrent processes given the same
    journal shard the sweep by lease.  ``retry`` bounds transient-
    failure retries (worker death, watchdog, OSError — deterministic
    failures never retry); ``point_timeout`` is a supervisor-side
    wall-clock deadline per point that kills and retries hung
    workers.
    """
    t0 = time.perf_counter()
    w = get_workload(workload)
    if variant != "base" and variant not in w.variants:
        raise ReproError(
            f"workload {w.name!r} has no variant {variant!r}")
    for objective in objectives:
        if objective not in METRICS:
            raise ReproError(f"unknown objective {objective!r}; "
                             f"known: {', '.join(METRICS)}")
    params_list = [dict(p) for p in space]
    if not params_list:
        raise ReproError("design space is empty")
    sim = sim or SimParams()
    base_sim = sim_key_dict(sim)
    template = pipeline if isinstance(pipeline, str) else None

    planned = plan_points(w.name, params_list, pipeline, sim,
                          variant=variant, check=check)

    journal = _open_journal(journal, sweep_id)
    attached = journal is not None and journal.exists()
    if journal is not None and not attached:
        journal.write_plan(
            workload=w.name, variant=variant, template=template,
            objectives=list(objectives), sim=base_sim,
            points=[{"key": row["key"], "index": row["index"],
                     "params": row["params"],
                     "pass_spec": row["pass_spec"],
                     "sim": row["sim"],
                     "wallclock_timeout": sim.wallclock_timeout,
                     "check": check}
                    for row in planned])
    journal_state = journal.state() if attached else None
    if journal_state is not None:
        ours = {row["key"] for row in planned}
        theirs = set(journal_state.points)
        if theirs and ours != theirs:
            raise ReproError(
                f"sweep journal {journal.sweep_id} does not match "
                f"this sweep ({len(ours - theirs)} new / "
                f"{len(theirs - ours)} missing point(s)); start a "
                f"fresh sweep or resume with matching parameters")

    return _execute(
        w=w, variant=variant, template=template,
        objectives=list(objectives), base_sim=base_sim,
        workers=workers, cache=cache, check=check, progress=progress,
        planned=planned, journal=journal,
        journal_state=journal_state, retry=retry,
        point_timeout=point_timeout, lease_ttl=lease_ttl, t0=t0)


def resume(ref: str, *,
           sweeps_dir: str = DEFAULT_SWEEPS_DIR,
           workers: Optional[int] = None,
           cache: Union[None, str, ResultCache] = None,
           progress: Optional[Callable[[PointResult], None]] = None,
           retry: Optional[RetryPolicy] = None,
           point_timeout: Optional[float] = None,
           lease_ttl: float = DEFAULT_LEASE_TTL,
           ) -> ExploreReport:
    """Finish an interrupted sweep from its journal alone.

    ``ref`` is a sweep id, unique prefix, or ``last``.  The journal's
    plan carries everything — workload, variant, per-point params and
    rendered pass specs, sim config — so no grid or template needs to
    be re-supplied, and completed points are restored byte-identically
    from their recorded result documents."""
    t0 = time.perf_counter()
    journal = resolve_sweep(ref, sweeps_dir)
    state = journal.state()
    if state.plan is None:
        raise ReproError(
            f"sweep journal {journal.sweep_id} has no plan record "
            f"(torn write at creation?); it cannot be resumed")
    plan = state.plan
    w = get_workload(plan["workload"])
    variant = plan.get("variant", "base")
    base_sim = dict(plan.get("sim") or {})
    # The plan's point rows also carried the watchdog + check flags.
    wallclock = None
    check = True
    records, _ = journal.records()
    for rec in records:
        if rec.get("ev") == "point":
            wallclock = rec.get("wallclock_timeout", wallclock)
            check = rec.get("check", check)
            break
    planned: List[Dict] = []
    for ps in state.ordered():
        point = PointResult(index=ps.index, params=dict(ps.params),
                            pass_spec=ps.pass_spec)
        request = plan_error = None
        try:
            request = _point_request(w.name, variant, ps.pass_spec,
                                     ps.sim, wallclock, check)
        except ReproError as exc:  # a point that failed planning
            plan_error = point.error = failure_document(exc)
        planned.append({
            "index": ps.index,
            "params": dict(ps.params),
            "pass_spec": ps.pass_spec,
            "sim": dict(ps.sim),
            "key": ps.key,
            "request": request,
            "_point": point,
            "_plan_error": plan_error,
        })
    return _execute(
        w=w, variant=variant, template=plan.get("template"),
        objectives=list(plan.get("objectives") or ("time_us", "alms")),
        base_sim=base_sim, workers=workers, cache=cache,
        check=check, progress=progress, planned=planned,
        journal=journal, journal_state=state, retry=retry,
        point_timeout=point_timeout, lease_ttl=lease_ttl, t0=t0)


def _open_journal(journal, sweep_id) -> Optional[SweepJournal]:
    if journal is None or isinstance(journal, SweepJournal):
        return journal
    return SweepJournal(str(journal), sweep_id or new_sweep_id())


def _execute(*, w, variant, template, objectives, base_sim,
             workers, cache, check, progress, planned, journal,
             journal_state, retry, point_timeout, lease_ttl,
             t0) -> ExploreReport:
    """Shared sweep driver behind :func:`explore` and :func:`resume`."""
    if workers is None:
        workers = default_workers()
    if isinstance(cache, str):
        cache = ResultCache(cache)
    args = list(w.args_for(variant))
    sweep = _Sweep(journal=journal, lease_ttl=lease_ttl, cache=cache,
                   progress=progress, total=len(planned))
    pending: List[_PointTask] = []

    # Settle what we can without dispatching: planning failures,
    # journal restores, request-index cache hits.
    for row in planned:
        point: PointResult = row["_point"]
        ps = journal_state.points.get(row["key"]) \
            if journal_state is not None else None
        if ps is not None and ps.settled:
            sweep.restore(point, ps)
            continue
        if row["_plan_error"] is not None:
            sweep.emit(point)
            if journal is not None:
                journal.record_error(row["key"], "planner", 1,
                                     row["_plan_error"], final=True)
            continue
        rkey = None
        if cache is not None:
            rkey = request_key(w.name, variant, row["pass_spec"],
                               args, row["sim"], check)
            doc = cache.lookup_request(rkey)
            if doc is not None:
                point.key = doc["key"]
                point.fingerprint = doc["fingerprint"]
                point.settle(doc, source="cache-index")
                sweep.emit(point)
                if journal is not None:
                    journal.record_done(row["key"], "index",
                                        point.to_json())
                continue
        pending.append(_PointTask({
            "index": row["index"],
            "request": row["request"].to_json(),
            "cache_root": cache.root if cache is not None else None,
        }, point, rkey, row["key"]))

    # Batched dispatch: points sharing a pass spec share a front end
    # and a circuit, so they ship to workers as *groups* and the
    # front-end runs once per group (sim.*-only sweeps pay one
    # translation + optimization + specialization for the whole axis).
    # Each group is split into at most ``workers`` chunks so a single
    # large group still saturates the pool.
    by_spec: Dict[str, List[_PointTask]] = {}
    for task in pending:
        by_spec.setdefault(task.point.pass_spec, []).append(task)
    chunks: List[List[_PointTask]] = []
    for group in by_spec.values():
        ways = min(max(1, workers), len(group))
        chunks.extend([group[i::ways] for i in range(ways)])

    met = telemetry.metrics()
    group_sizes = met.histogram("dse.group_size",
                                buckets=(1, 2, 4, 8, 16, 32, 64))
    for chunk in chunks:
        group_sizes.observe(len(chunk))

    saved_signals = sweep.install_signals() if journal is not None \
        else {}
    try:
        with telemetry.tracer().span("dse.explore", category="dse",
                                     workload=w.name,
                                     points=len(planned),
                                     workers=workers) as _sp:
            sweep.run(chunks, workers=workers,
                      retry=retry or RetryPolicy(),
                      point_timeout=point_timeout)
            cache_counts = sweep.cache_counts
            if cache is not None:
                cache.save_index()
                for key, n in cache.counts.items():
                    cache_counts[key] = cache_counts.get(key, 0) + n
            results = sweep.results
            report = ExploreReport(
                workload=w.name, variant=variant, template=template,
                objectives=list(objectives), sim=base_sim,
                workers=workers,
                points=[results[i] for i in sorted(results)],
                wall_s=time.perf_counter() - t0,
                cache=dict(cache_counts),
                sweep_id=journal.sweep_id if journal else "",
                durability=dict(sweep.durability))
            c = report.counts
            _sp.set(ok=c["ok"], failed=c["failed"],
                    cache_hits=c["cache_hits"], groups=len(chunks),
                    resumed=c["resumed"],
                    quarantined=c["quarantined"])
    finally:
        for sig, old in saved_signals.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    if telemetry.enabled():
        met.counter("dse.points.dispatched").inc(len(pending))
        met.counter("dse.points.ok").inc(c["ok"])
        met.counter("dse.points.failed").inc(c["failed"])
        met.counter("dse.points.cached").inc(c["cache_hits"])
        met.counter("dse.points.resumed").inc(c["resumed"])
        for key, n in report.cache.items():
            met.counter(f"dse.cache.{key}").inc(n)
        for p in report.points:
            if p.fingerprint:
                telemetry.note_fingerprint(p.fingerprint)
    return report

