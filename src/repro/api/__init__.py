"""The unified toolflow facade: ``Pipeline`` and ``Evaluation``.

Every consumer of the toolchain — the CLI, the benchmarks, the
design-space-exploration engine, and the examples — needs the same
four calls: ``translate_module`` -> ``PassManager`` -> ``simulate``
-> ``synthesize``.  :class:`Pipeline` packages that flow behind one
chainable entry point::

    from repro import Pipeline

    ev = (Pipeline("img_scale")
          .optimize("localize,banking=4,fusion,tuning")
          .simulate()
          .synthesize())
    print(ev.cycles, ev.time_us, ev.synth.alms)

A Pipeline accepts a workload name, a :class:`~repro.workloads.Workload`,
MiniC source text, or an already-compiled
:class:`~repro.frontend.ir.Module`.  ``optimize`` takes pass instances,
:class:`~repro.opt.PassSpec` objects, or the spec mini-language
(``"banking=4,tiling=2"``, see :mod:`repro.opt.specs`).  Each stage
returns the Pipeline so the chain reads like the paper's Figure 1;
``synthesize()`` (or :meth:`Pipeline.evaluation`) returns the typed
:class:`Evaluation` aggregate.

The four building blocks stay public for tools that need a piece of
the flow.  Every evaluation — the CLI's ``simulate``/``report``/
``bench``, the ``repro.serve`` daemon (lane-groups included), DSE
sweep points and the paper-figure benchmarks — goes through
:func:`run_request` (wrapped by :func:`execute`) or this facade.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..errors import ReproError, WorkloadError, failure_document
from ..frontend import compile_minic, translate_module
from ..frontend.interp import Interpreter, Memory
from ..frontend.ir import Module
from ..opt import PassManager, PassResult, coerce_passes
from ..rtl import SynthesisReport, synthesize
from ..sim import (BatchResult, SimParams, SimResult, simulate,
                   simulate_batch)
from ..types import FloatType
from ..util.rng import seed_memory
from ..workloads import WORKLOADS, Workload
from .requests import (  # noqa: F401  (re-exported wire schema)
    EVAL_SCHEMA,
    SIM_FIELDS,
    EvaluationRequest,
    EvaluationResponse,
    evaluation_doc,
)


@dataclass
class Evaluation:
    """Typed aggregate of one end-to-end pipeline evaluation."""

    name: str
    workload: Optional[str]
    variant: str
    #: Canonical pass-spec string, or None when the pipeline was built
    #: from pre-constructed pass instances (not spec-recoverable).
    passes: Optional[str]
    pass_log: List[PassResult] = field(default_factory=list)
    sim: Optional[SimResult] = None
    synth: Optional[SynthesisReport] = None
    #: Result of behavior verification: True/False, or None when the
    #: simulation ran unchecked (or never ran).
    verified: Optional[bool] = None

    @property
    def cycles(self) -> Optional[int]:
        return self.sim.cycles if self.sim else None

    @property
    def stats(self):
        return self.sim.stats if self.sim else None

    @property
    def results(self) -> List:
        return self.sim.results if self.sim else []

    @property
    def time_us(self) -> Optional[float]:
        """FPGA wall-clock estimate; needs both sim and synthesis."""
        if self.sim is None or self.synth is None:
            return None
        return self.sim.cycles / self.synth.fpga_mhz

    def to_json(self) -> Dict:
        doc: Dict = {
            "name": self.name,
            "workload": self.workload,
            "variant": self.variant,
            "passes": self.passes,
            "verified": self.verified,
            "pass_log": [{"name": r.pass_name, "changed": r.changed,
                          "dN": r.delta_nodes, "dE": r.delta_edges,
                          "wall_ms": round(r.wall_ms, 3)}
                         for r in self.pass_log],
        }
        if self.sim is not None:
            doc["cycles"] = self.sim.cycles
            doc["results"] = list(self.sim.results)
            doc["stats"] = self.sim.stats.to_json()
        if self.synth is not None:
            doc["synth"] = self.synth.to_json()
            if self.sim is not None:
                doc["time_us"] = self.time_us
        return doc

    def __repr__(self) -> str:
        bits = [self.name]
        if self.sim is not None:
            bits.append(f"{self.sim.cycles} cyc")
        if self.time_us is not None:
            bits.append(f"{self.time_us:.2f} us")
        if self.synth is not None:
            bits.append(f"{self.synth.alms} ALMs")
        return f"Evaluation({', '.join(bits)})"


class Pipeline:
    """Chainable workload -> uIR -> uopt -> sim -> synthesis facade."""

    def __init__(self, workload, *, variant: str = "base",
                 name: Optional[str] = None):
        self.workload: Optional[Workload] = None
        self.variant = variant
        with telemetry.tracer().span("pipeline.frontend") as _sp:
            if isinstance(workload, Workload):
                self.workload = workload
            elif isinstance(workload, Module):
                self.module = workload
            elif isinstance(workload, str):
                if _looks_like_source(workload):
                    self.module = compile_minic(
                        workload, filename=name or "<pipeline>")
                elif workload in WORKLOADS:
                    self.workload = WORKLOADS[workload]
                else:
                    raise ReproError(
                        f"{workload!r} is neither a known workload "
                        f"({', '.join(sorted(WORKLOADS))}) nor MiniC "
                        f"source text")
            else:
                raise ReproError(
                    f"cannot build a Pipeline from "
                    f"{type(workload).__name__}")
            if self.workload is not None:
                if variant != "base" and \
                        variant not in self.workload.variants:
                    raise ReproError(
                        f"workload {self.workload.name!r} has no "
                        f"variant {variant!r}")
                self.module = self.workload.module(variant)
                default = self.workload.name if variant == "base" \
                    else f"{self.workload.name}_{variant}"
            else:
                default = "pipeline"
            self.name = name or default
            self.circuit = translate_module(self.module, name=self.name)
            _sp.set(name=self.name)
        if telemetry.enabled():
            telemetry.annotate("workload", self.workload.name
                               if self.workload else self.name)
        self.pass_log: List[PassResult] = []
        #: Canonical spec of everything optimize() ran, None once a
        #: non-spec pass instance slips in.
        self.pass_spec: Optional[str] = ""
        self.sim: Optional[SimResult] = None
        self.memory: Optional[Memory] = None
        self.synth: Optional[SynthesisReport] = None
        self.verified: Optional[bool] = None

    @classmethod
    def from_circuit(cls, circuit, *, workload=None,
                     variant: str = "base") -> "Pipeline":
        """Wrap an already-translated (possibly optimized) circuit."""
        pipe = cls.__new__(cls)
        pipe.workload = WORKLOADS[workload] if isinstance(workload, str) \
            else workload
        pipe.variant = variant
        pipe.module = pipe.workload.module(variant) if pipe.workload \
            else None
        pipe.name = circuit.name
        pipe.circuit = circuit
        pipe.pass_log = []
        pipe.pass_spec = None
        pipe.sim = None
        pipe.memory = None
        pipe.synth = None
        pipe.verified = None
        return pipe

    def fork(self) -> "Pipeline":
        """A fresh Pipeline over this one's front end.

        The module, circuit and pass log are shared, so a front end
        built once (:func:`build_front`) serves many evaluations and
        keeps the compiled kernel's identity memo warm; result state
        (sim, memory, synth) starts empty, so nothing leaks between
        evaluations.  The serve worker's LRU and DSE groups run every
        evaluation on a fork.
        """
        pipe = Pipeline.from_circuit(self.circuit, workload=self.workload,
                                     variant=self.variant)
        pipe.module = self.module
        pipe.name = self.name
        pipe.pass_log = list(self.pass_log)
        pipe.pass_spec = self.pass_spec
        return pipe

    # -- stage 2: uopt ---------------------------------------------------
    def optimize(self, passes=None, *, validate: bool = True,
                 validate_each: bool = False) -> "Pipeline":
        """Run a pass pipeline (spec string / specs / instances)."""
        instances, label = coerce_passes(passes)
        manager = PassManager(instances, validate=validate,
                              validate_each=validate_each)
        with telemetry.tracer().span("pipeline.optimize",
                                     passes=label or "") as _sp:
            self.pass_log.extend(manager.run(self.circuit))
            _sp.set(n_passes=len(manager.log))
        if self.pass_spec is None or label is None:
            self.pass_spec = None
        else:
            self.pass_spec = ",".join(
                p for p in (self.pass_spec, label) if p)
        return self

    # -- stage "sim": cycle-level execution ------------------------------
    def simulate(self, params: Optional[SimParams] = None, *,
                 args: Optional[Sequence] = None,
                 memory: Optional[Memory] = None,
                 kernel: Optional[str] = None,
                 check: bool = True) -> "Pipeline":
        """Simulate the circuit; verify behavior unless ``check=False``.

        Workload pipelines default ``args``/``memory`` from the
        workload and verify against its golden data.  Source/module
        pipelines snapshot the initial memory image and compare the
        simulated result against the reference interpreter run on the
        same snapshot.  ``kernel`` ("event" / "dense" / "compiled")
        overrides the kernel without building a full ``SimParams``.
        """
        if kernel is not None:
            params = replace(params or SimParams(), kernel=kernel)
        if args is None:
            args = self.default_args()
        if memory is None:
            memory = self._fresh_memory()
        initial = list(memory.words) \
            if check and self.workload is None else None
        tel = telemetry.tracer()
        with tel.span("pipeline.simulate",
                      kernel=(params.kernel if params
                              else SimParams.kernel)) as _sp:
            self.sim = simulate(self.circuit, memory, list(args),
                                params)
            _sp.set(cycles=self.sim.cycles)
        if telemetry.enabled():
            from ..core.serialize import circuit_fingerprint
            telemetry.note_fingerprint(circuit_fingerprint(self.circuit))
        self.memory = memory
        if not check:
            self.verified = None
            return self
        with tel.span("pipeline.verify"):
            self._verify(memory, initial, args, self.sim.results)
        self.verified = True
        return self

    def default_args(self) -> List:
        """Root arguments of a run given none: the workload's, or
        none for source pipelines."""
        return list(self.workload.args_for(self.variant)) \
            if self.workload is not None else []

    def _fresh_memory(self, seed: Optional[int] = None) -> Memory:
        """A run's input image: the workload's own, else the module's
        arrays (pseudo-randomly filled from ``seed`` when given)."""
        if self.workload is not None:
            return self.workload.fresh_memory(self.variant)
        memory = Memory(self.module)
        seed_memory(memory, seed)
        return memory

    def _verify(self, memory: Memory, initial: List, args: Sequence,
                results: Sequence, lane: Optional[int] = None) -> None:
        """Check one finished run: workload pipelines against the
        workload's golden data, the others against the reference
        interpreter run on the run's input image ``initial``.  Raises
        :class:`~repro.errors.WorkloadError` on a divergence."""
        if self.workload is not None:
            self.workload.verify(memory, self.variant)
            return
        golden = Memory(self.module)
        golden.words[:] = initial
        returned = Interpreter(self.module, golden).run(*args)
        if returned is None:
            expected: List = []
        elif isinstance(returned, (list, tuple)):
            expected = list(returned)
        else:
            expected = [returned]
        if memory.words != golden.words or list(results) != expected:
            where = "" if lane is None else f" lane {lane}"
            raise WorkloadError(
                f"{self.name}:{where} simulated memory/results diverge "
                f"from the reference interpreter")

    # -- stage "sim", batched --------------------------------------------
    def evaluate_many(self, args_list: Optional[Sequence[Sequence]] = None,
                      params: Optional[SimParams] = None, *,
                      kernel: Optional[str] = None,
                      check: bool = True,
                      seed: Optional[int] = None) -> BatchResult:
        """Simulate N independent workload instances in one batched run.

        Each entry of ``args_list`` is one lane's root-argument list;
        ``None`` replicates the pipeline's default arguments across
        ``params.batch`` lanes (which must then be set).  ``seed``
        fills every lane's memory image of a source pipeline, as
        ``repro simulate --seed`` does for one run.  All lanes
        share this pipeline's circuit — same fingerprint, so the whole
        batch steps through one compiled kernel
        (:func:`repro.sim.simulate_batch`); per-lane results and
        memory are bit-identical to N independent runs.

        With ``check=True`` every surviving lane is verified like a
        scalar :meth:`simulate`.  A diverging lane raises
        :class:`~repro.errors.WorkloadError` naming the lane;
        otherwise ``BatchResult.verified`` records the per-lane
        outcomes (failed lanes stay ``False``).
        """
        if kernel is not None:
            params = replace(params or SimParams(), kernel=kernel)
        params = params or SimParams()
        if args_list is None:
            if not params.batch:
                raise ReproError(
                    "evaluate_many needs args_list or SimParams.batch")
            args_list = [self.default_args()
                         for _ in range(params.batch)]
        else:
            args_list = [list(a) for a in args_list]
        n = len(args_list)
        memories = [self._fresh_memory(seed) for _ in range(n)]
        snapshots = [list(m.words) for m in memories] if check else None
        with telemetry.tracer().span("pipeline.simulate_batch",
                                     lanes=n) as _sp:
            batch = simulate_batch(self.circuit, memories, args_list,
                                   replace(params, batch=n))
            _sp.set(mode=batch.mode,
                    ok=sum(e is None for e in batch.errors))
        if not check:
            return batch
        verified = [False] * n
        for i in range(n):
            if batch.results[i] is None:
                continue
            self._verify(memories[i], snapshots[i], args_list[i],
                         batch.results[i].results, lane=i)
            verified[i] = True
        batch.verified = verified
        return batch

    # -- stage 3: synthesis ----------------------------------------------
    def synthesize(self, name: Optional[str] = None) -> Evaluation:
        """Estimate FPGA/ASIC quality and return the full Evaluation."""
        with telemetry.tracer().span("pipeline.synthesize") as _sp:
            self.synth = synthesize(self.circuit, name=name or self.name)
            _sp.set(alms=self.synth.alms, fpga_mhz=self.synth.fpga_mhz)
        return self.evaluation()

    def evaluation(self) -> Evaluation:
        """Typed aggregate of everything the chain has produced."""
        return Evaluation(
            name=self.name,
            workload=self.workload.name if self.workload else None,
            variant=self.variant,
            passes=self.pass_spec,
            pass_log=list(self.pass_log),
            sim=self.sim,
            synth=self.synth,
            verified=self.verified)

    # -- conveniences ----------------------------------------------------
    @property
    def cycles(self) -> Optional[int]:
        return self.sim.cycles if self.sim else None

    @property
    def stats(self):
        return self.sim.stats if self.sim else None

    def __repr__(self) -> str:
        stages = ["translated"]
        if self.pass_log:
            stages.append(f"{len(self.pass_log)} passes")
        if self.sim is not None:
            stages.append(f"simulated {self.sim.cycles} cyc")
        if self.synth is not None:
            stages.append("synthesized")
        return f"Pipeline({self.name}: {', '.join(stages)})"


def _looks_like_source(text: str) -> bool:
    """MiniC source vs workload name: source has structure, names don't."""
    return any(ch in text for ch in "\n{};(")


# ---------------------------------------------------------------------------
# The request/response execution layer (wire schema: repro.eval/v1)
# ---------------------------------------------------------------------------
#
# EvaluationRequest is the one serialized shape of an evaluation; the
# CLI, the examples, and the repro.serve daemon all construct it and
# funnel through run_request/execute below, so a local call and a
# served call are the same typed computation.

def sim_wire_dict(params: Optional[SimParams]) -> Dict[str, object]:
    """A SimParams as a wire-safe ``sim`` dict (fault plans as JSON;
    :class:`EvaluationRequest` drops the default-valued fields)."""
    if params is None:
        return {}
    sim = {name: getattr(params, name) for name in SIM_FIELDS}
    if params.faults is not None:
        sim["faults"] = params.faults.to_json()
    return sim


def request_for(workload, passes=None,
                params: Optional[SimParams] = None, *,
                variant: str = "base", check: bool = True,
                name: Optional[str] = None,
                args: Optional[Sequence] = None,
                args_list: Optional[Sequence[Sequence]] = None,
                seed: Optional[int] = None) -> EvaluationRequest:
    """Build the :class:`EvaluationRequest` for one evaluation.

    ``workload`` is a workload name, :class:`Workload`, or MiniC
    source text; ``passes`` must be spec-recoverable (a spec string,
    specs, or None — pre-built pass instances cannot be serialized).
    """
    from ..opt import coerce_passes as _coerce
    if isinstance(workload, Workload):
        target, source = workload.name, None
    elif isinstance(workload, str) and _looks_like_source(workload):
        target, source = None, workload
    elif isinstance(workload, str):
        target, source = workload, None
    else:
        raise ReproError(
            f"cannot build an EvaluationRequest from "
            f"{type(workload).__name__}")
    if passes is None or isinstance(passes, str):
        spec = passes or ""
    else:
        _instances, spec = _coerce(passes)
        if spec is None:
            raise ReproError(
                "pass instances are not spec-recoverable; give "
                "request_for a spec string (see repro.opt.specs)")
    return EvaluationRequest(
        workload=target, source=source, variant=variant, passes=spec,
        args=args, args_list=args_list, sim=sim_wire_dict(params),
        check=check, seed=seed, name=name)


def coerce_request_args(module: Module, raw: Sequence) -> List:
    """Type raw (possibly textual) root arguments against @main."""
    main = module.main
    if len(raw) != len(main.args):
        raise ReproError(
            f"@main takes {len(main.args)} argument(s) "
            f"({', '.join(f'{a.name}: {a.type}' for a in main.args)}), "
            f"got {len(raw)}")
    values: List = []
    for value, arg in zip(raw, main.args):
        if isinstance(arg.type, FloatType):
            values.append(float(value))
        else:
            values.append(int(value))
    return values


def build_front(request: EvaluationRequest) -> Pipeline:
    """The reusable front half of a request: frontend + optimize.

    Everything up to (not including) simulation is a pure function of
    the request's :meth:`~EvaluationRequest.group_key` fields, so the
    serve worker caches the result across requests (the hot-circuit
    LRU) and a DSE group builds it once for all its points; both
    evaluate on :meth:`Pipeline.fork` copies of it, re-simulating the
    same circuit object — which also keeps the object-identity
    compiled-kernel memo warm.
    """
    pipe = Pipeline(request.workload if request.workload is not None
                    else request.source,
                    variant=request.variant, name=request.name)
    pipe.optimize(request.passes or None)
    return pipe


def run_request(request: EvaluationRequest, *,
                pipeline: Optional[Pipeline] = None
                ) -> Tuple[Pipeline, Union[Evaluation, BatchResult]]:
    """Execute a request in-process; the one evaluation code path.

    Returns the driven :class:`Pipeline` (so local callers keep full
    access to stats, observers, and the optimized circuit) plus the
    :class:`Evaluation` (scalar requests) or :class:`BatchResult`
    (batched requests; the pipeline is synthesized either way).
    Raises :class:`~repro.errors.ReproError` subclasses on failure —
    :func:`execute` is the wrapper that converts them into error
    responses.

    ``pipeline`` short-circuits the front end with an already
    optimized pipeline for this request's group (must match the
    request's workload/source, variant, and passes — the caller owns
    that contract; the serve worker keys its LRU on ``group_key``).
    """
    params = request.sim_params()
    pipe = pipeline if pipeline is not None else build_front(request)
    if request.is_batch:
        args_list = None
        if request.args_list is not None:
            args_list = [coerce_request_args(pipe.module, lane)
                         for lane in request.args_list]
        elif request.args is not None:
            # sim.batch lanes replicating the request's (typed) args.
            args_list = [coerce_request_args(pipe.module, request.args)
                         ] * (params.batch or 1)
        batch = pipe.evaluate_many(args_list, params,
                                   check=request.check, seed=request.seed)
        pipe.synthesize()
        return pipe, batch
    args = None
    if request.args is not None:
        args = coerce_request_args(pipe.module, request.args)
    pipe.simulate(params, args=args,
                  memory=pipe._fresh_memory(request.seed),
                  check=request.check)
    return pipe, pipe.synthesize()


def batch_evaluation_docs(pipe: Pipeline, batch: BatchResult
                          ) -> List[Dict]:
    """Per-lane deterministic evaluation documents of a batched run.

    Each surviving lane's document is **bit-identical** to the
    document a scalar run of that lane would produce (PR-6's per-lane
    identity guarantee carried up to the wire schema); failed lanes
    yield ``{"lane": i, "error": <doc>}`` instead.
    """
    docs: List[Dict] = []
    for i in range(batch.lanes):
        if batch.results[i] is None:
            docs.append({"lane": i, "error": batch.errors[i]})
            continue
        verified = batch.verified[i] if batch.verified is not None \
            else None
        lane_ev = Evaluation(
            name=pipe.name, workload=pipe.workload.name
            if pipe.workload else None, variant=pipe.variant,
            passes=pipe.pass_spec, pass_log=list(pipe.pass_log),
            sim=batch.results[i], synth=pipe.synth,
            verified=verified)
        docs.append(evaluation_doc(lane_ev, lane=i))
    return docs


def execute(request: EvaluationRequest, *,
            pipeline: Optional[Pipeline] = None) -> EvaluationResponse:
    """Run one request to a typed response (never raises ReproError).

    This is the server's worker entry point and the client-visible
    semantics of local execution: errors become PR-3 style documents
    with a retry ``family``; success carries the deterministic
    evaluation payload(s).
    """
    key = request.canonical_key()
    t0 = time.perf_counter()
    try:
        pipe, result = run_request(request, pipeline=pipeline)
    except ReproError as exc:
        return EvaluationResponse(
            status="error", request_key=key, error=failure_document(exc),
            meta={"wall_s": round(time.perf_counter() - t0, 4)})
    meta = {"wall_s": round(time.perf_counter() - t0, 4)}
    if isinstance(result, BatchResult):
        meta["batch_mode"] = result.mode
        return EvaluationResponse(
            status="ok", request_key=key,
            lanes=batch_evaluation_docs(pipe, result), meta=meta)
    return EvaluationResponse(
        status="ok", request_key=key,
        evaluation=evaluation_doc(result), meta=meta)


def evaluate(workload, passes=None, params: Optional[SimParams] = None,
             *, variant: str = "base", check: bool = True,
             name: Optional[str] = None,
             args: Optional[Sequence] = None) -> Evaluation:
    """One-call convenience: build, optimize, simulate, synthesize.

    Spec-recoverable calls are routed through the typed
    :class:`EvaluationRequest` — the exact object the CLI and the
    ``repro.serve`` daemon exchange — so a local ``evaluate`` and a
    served one are the same computation.  Pre-built pass instances
    (not serializable) keep the direct chain.
    """
    try:
        request = request_for(workload, passes, params,
                              variant=variant, check=check,
                              name=name, args=args)
    except ReproError:
        pipe = Pipeline(workload, variant=variant, name=name)
        pipe.optimize(passes)
        pipe.simulate(params, args=args, check=check)
        return pipe.synthesize()
    return run_request(request)[1]


def evaluate_many(workload, args_list=None,
                  params: Optional[SimParams] = None, *,
                  passes=None, variant: str = "base",
                  check: bool = True,
                  name: Optional[str] = None) -> BatchResult:
    """One-call batched convenience over the typed request path."""
    request = request_for(workload, passes, params, variant=variant,
                          check=check, name=name, args_list=args_list)
    if not request.is_batch:
        raise ReproError(
            "evaluate_many needs args_list or SimParams.batch")
    return run_request(request)[1]
