"""Latency-insensitivity conformance fuzzing.

The uIR execution model is latency-insensitive: a circuit's results
and final memory image are a function of the dataflow graph alone,
never of component timing.  This module checks that claim in anger by
running workloads under seeded :class:`~repro.sim.faults.FaultPlan`
perturbations and asserting the **LI invariant**:

    cycles may change; results and memory must be bit-identical.

Three modes per case:

``fault``
    The same circuit simulated fault-free (reference) and under the
    plan.  Any divergence is a protocol violation in the simulator or
    in a uopt transform's channel bookkeeping.
``differential``
    The base (un-optimized) circuit and the pass-instrumented circuit
    simulated under the *same* plan.  Catches transforms that are only
    correct for the latencies they were tuned against.
``kernel``
    The same circuit under the same plan (or fault-free, when the plan
    is ``None``) on two simulation kernels — ``kernel`` vs
    ``compare_kernel``.  Kernels claim *bit identity*, so this mode is
    stricter than the LI invariant: cycle counts must match too.
``batch``
    The batched driver (:func:`repro.sim.simulate_batch`) versus the
    scalar baseline.  Fault-free, every lane must be bit-identical to
    the scalar run *including cycles*.  Under a fault plan the policy
    is the enforced scalar fallback (DESIGN.md section 9): the batch
    must report ``mode == "sequential"`` and every lane must uphold
    the LI invariant against the fault-free baseline.

Failures are greedily minimized over fault categories (drop a whole
dimension, keep the drop when the failure persists) and written as
replayable bundles (:mod:`repro.verify.artifacts`).  Everything is
deterministic from one ``--seed``: plan generation, per-site fault
decisions, and verdict ordering — two runs produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import LIViolationError, ReproError, exit_code_for
from ..frontend import translate_module
from ..opt import PassManager, parse_passes
from ..sim import SimParams, simulate
from ..sim.faults import FaultPlan
from ..util.rng import derive_seed
from ..workloads import get_workload, workload_names
from .artifacts import write_bundle

FUZZ_SCHEMA = "repro.fuzzreport/v1"

#: Pass stack exercised by ``repro fuzz`` when none is given: the full
#: uopt pipeline, so conformance covers every transform at once.
DEFAULT_FUZZ_PASSES = ("memory_localization,scratchpad_banking,"
                       "op_fusion,task_pipelining,perf_counters")


@dataclass
class CaseResult:
    """Verdict of one (workload, plan, mode) execution."""

    workload: str
    variant: str
    pass_spec: str
    mode: str                      # "fault" / "differential" / "kernel"
    plan: Optional[FaultPlan]      # None: fault-free "kernel" case
    ok: bool = False
    cycles_ref: int = 0
    cycles_run: int = 0
    error: str = ""                # exception class name on failure
    message: str = ""
    exit_code: int = 0
    bundle: str = ""               # repro bundle path, if written
    minimized: Optional[List[str]] = None
    #: Raw failure objects, kept off the JSON (bundling only).
    last_exc: Optional[BaseException] = field(
        default=None, repr=False, compare=False)
    last_detail: Optional[dict] = field(
        default=None, repr=False, compare=False)

    @property
    def case_id(self) -> str:
        tag = "nofault" if self.plan is None \
            else f"{self.plan.seed & 0xFFFFFFFF:08x}"
        return f"{self.workload}-{self.variant}-{self.mode}-{tag}"

    def to_json(self) -> dict:
        doc = {
            "case": self.case_id,
            "workload": self.workload,
            "variant": self.variant,
            "passes": self.pass_spec,
            "mode": self.mode,
            "plan_seed": self.plan.seed if self.plan else None,
            "categories": self.plan.active_categories()
            if self.plan else [],
            "ok": self.ok,
            "cycles_ref": self.cycles_ref,
            "cycles_run": self.cycles_run,
        }
        if not self.ok:
            doc.update(error=self.error, message=self.message,
                       exit_code=self.exit_code, bundle=self.bundle,
                       minimized=self.minimized)
        return doc

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"FAIL[{self.error}]"
        return (f"{self.case_id:<40} {verdict:<24} "
                f"cycles {self.cycles_ref} -> {self.cycles_run}")


@dataclass
class FuzzReport:
    """All verdicts of one fuzz invocation, deterministic per seed."""

    seed: int
    pass_spec: str
    differential: bool
    intensity: float
    plan_seeds: List[int] = field(default_factory=list)
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if not c.ok]

    def to_json(self) -> dict:
        return {
            "schema": FUZZ_SCHEMA,
            "seed": self.seed,
            "passes": self.pass_spec,
            "differential": self.differential,
            "intensity": self.intensity,
            "plan_seeds": self.plan_seeds,
            "cases": [c.to_json() for c in self.cases],
            "total": len(self.cases),
            "failed": len(self.failures()),
            "ok": self.ok,
        }

    def summary(self) -> str:
        total, failed = len(self.cases), len(self.failures())
        verdict = "all conformant" if failed == 0 \
            else f"{failed} VIOLATION(S)"
        return (f"fuzz: {total} case(s), seed={self.seed}: {verdict}")


def minimize_plan(plan: FaultPlan,
                  still_fails: Callable[[FaultPlan], bool]) -> FaultPlan:
    """Greedy delta-debugging over fault categories.

    Repeatedly drop one whole fault dimension; keep the drop whenever
    the failure persists.  At most ``|categories|^2`` re-runs.  The
    result is the smallest category set that still reproduces — the
    bundle a human actually wants to stare at.
    """
    steps = telemetry.metrics().counter("fuzz.minimizer_steps")
    changed = True
    while changed:
        changed = False
        for cat in plan.active_categories():
            candidate = plan.without(cat)
            steps.inc()
            if still_fails(candidate):
                plan = candidate
                changed = True
    return plan


class ConformanceFuzzer:
    """Build-once / perturb-many LI conformance driver.

    Circuits and fault-free baselines are cached per
    ``(workload, variant, pass_spec)``, so N plans cost N+1 simulations
    per configuration, not 2N.
    """

    def __init__(self, pass_spec: str = "", differential: bool = False,
                 artifacts_dir: Optional[str] = None,
                 kernel: str = SimParams.kernel,
                 compare_kernel: Optional[str] = None,
                 max_cycles: int = 2_000_000,
                 wallclock_timeout: Optional[float] = None,
                 deadlock_window: int = 4_000, minimize: bool = True,
                 batch: bool = False):
        if compare_kernel == kernel:
            raise ReproError(
                f"compare kernel {compare_kernel!r} is the kernel under "
                f"test; compare against a different kernel")
        self.pass_spec = pass_spec
        self.differential = differential
        self.artifacts_dir = artifacts_dir
        self.kernel = kernel
        #: When set, every plan also runs in mode "kernel": this kernel
        #: vs ``kernel`` on identical inputs, cycles included.
        self.compare_kernel = compare_kernel
        #: When set, every workload also runs in mode "batch": batched
        #: per-lane identity, and the scalar-fallback policy under
        #: fault plans.
        self.batch = batch
        self.max_cycles = max_cycles
        self.wallclock_timeout = wallclock_timeout
        self.deadlock_window = deadlock_window
        self.minimize = minimize
        self._circuits: Dict[Tuple[str, str, str], object] = {}
        self._baselines: Dict[Tuple[str, str, str],
                              Tuple[list, list, int]] = {}

    # -- cached building ----------------------------------------------------
    def _circuit(self, workload: str, variant: str, spec: str):
        key = (workload, variant, spec)
        if key not in self._circuits:
            w = get_workload(workload)
            circuit = translate_module(
                w.module(variant), name=f"{workload}_{variant}")
            PassManager(parse_passes(spec)).run(circuit)
            self._circuits[key] = circuit
        return self._circuits[key]

    def _params(self, plan: Optional[FaultPlan],
                kernel: Optional[str] = None) -> SimParams:
        return SimParams(max_cycles=self.max_cycles,
                         deadlock_window=self.deadlock_window,
                         kernel=kernel or self.kernel,
                         observe="counters",
                         faults=plan,
                         wallclock_timeout=self.wallclock_timeout)

    def _run(self, workload: str, variant: str, spec: str,
             plan: Optional[FaultPlan],
             kernel: Optional[str] = None) -> Tuple[list, list, int]:
        """Simulate one configuration; returns (results, words, cycles)."""
        w = get_workload(workload)
        circuit = self._circuit(workload, variant, spec)
        mem = w.fresh_memory(variant)
        result = simulate(circuit, mem, list(w.args_for(variant)),
                          self._params(plan, kernel))
        return list(result.results), list(mem.words), result.cycles

    def _baseline(self, workload: str, variant: str,
                  spec: str) -> Tuple[list, list, int]:
        key = (workload, variant, spec)
        if key not in self._baselines:
            self._baselines[key] = self._run(workload, variant, spec,
                                             None)
        return self._baselines[key]

    # -- one case -----------------------------------------------------------
    @staticmethod
    def _diff(ref: Tuple[list, list, int],
              got: Tuple[list, list, int]) -> Optional[dict]:
        """None when bit-identical, else a compact violation record."""
        detail: dict = {}
        if ref[0] != got[0]:
            detail["results"] = {"want": ref[0], "got": got[0]}
        if ref[1] != got[1]:
            bad = [(i, w, g) for i, (w, g)
                   in enumerate(zip(ref[1], got[1])) if w != g]
            detail["memory"] = {
                "mismatched_words": len(bad),
                "first": [{"addr": i, "want": w, "got": g}
                          for i, w, g in bad[:8]],
            }
        return detail or None

    def run_case(self, workload: str, plan: Optional[FaultPlan],
                 variant: str = "base",
                 mode: str = "fault") -> CaseResult:
        """Execute one case; on failure, minimize and write a bundle.

        ``plan`` may be ``None`` only in mode "kernel" (fault-free
        bit-identity check); such failures reproduce directly with
        ``--kernel`` so no minimization or bundle is needed.
        """
        spec = self.pass_spec
        case = CaseResult(workload=workload, variant=variant,
                          pass_spec=spec, mode=mode, plan=plan)
        case.error, case.message = self._verdict(
            workload, variant, mode, plan, case)
        case.ok = not case.error
        met = telemetry.metrics()
        met.counter("fuzz.cases").inc(mode=mode)
        if case.ok:
            return case
        met.counter("fuzz.violations").inc(mode=mode,
                                           error=case.error)
        case.exit_code = case.exit_code or 7
        if plan is None:
            case.minimized = []
            return case
        original = plan
        if self.minimize:
            failing = case.error

            def still_fails(candidate: FaultPlan) -> bool:
                probe = CaseResult(workload=workload, variant=variant,
                                   pass_spec=spec, mode=mode,
                                   plan=candidate)
                err, _msg = self._verdict(workload, variant, mode,
                                          candidate, probe)
                return err == failing

            case.plan = minimize_plan(plan, still_fails)
        case.minimized = case.plan.active_categories()
        if self.artifacts_dir:
            case.bundle = write_bundle(
                self.artifacts_dir, case.case_id,
                workload=workload, variant=variant, pass_spec=spec,
                mode=mode, kernel=self.kernel,
                compare_kernel=self.compare_kernel,
                plan=case.plan, original_plan=original,
                circuit=self._circuit(workload, variant, spec),
                error=case.last_exc, detail=case.last_detail)
        return case

    def _verdict(self, workload: str, variant: str, mode: str,
                 plan: Optional[FaultPlan],
                 case: CaseResult) -> Tuple[str, str]:
        """Run reference + faulted sides; classify the outcome.

        Returns ("", "") on conformance, else (error class, message);
        stashes the raw exception / diff on ``case`` for bundling.
        """
        case.last_exc = None
        case.last_detail = None
        spec = self.pass_spec
        if mode == "batch":
            return self._verdict_batch(workload, variant, plan, case)
        try:
            if mode == "differential":
                # Base vs instrumented circuit, same plan on both.
                ref = self._run(workload, variant, "", plan)
                got = self._run(workload, variant, spec, plan)
            elif mode == "kernel":
                # Same circuit, same plan, two kernels.
                ref = self._baseline(workload, variant, spec) \
                    if plan is None \
                    else self._run(workload, variant, spec, plan)
                got = self._run(workload, variant, spec, plan,
                                kernel=self.compare_kernel)
            else:
                ref = self._baseline(workload, variant, spec)
                got = self._run(workload, variant, spec, plan)
        except ReproError as exc:
            case.last_exc = exc
            case.exit_code = exit_code_for(exc)
            return type(exc).__name__, str(exc)
        case.cycles_ref, case.cycles_run = ref[2], got[2]
        detail = self._diff(ref, got)
        if mode == "kernel" and detail is None and ref[2] != got[2]:
            # Kernels must agree cycle-for-cycle, not just on behavior.
            detail = {"cycles": {"want": ref[2], "got": got[2]}}
        if detail is None:
            return "", ""
        case.last_detail = detail
        exc = LIViolationError(
            f"{workload}/{variant} [{mode}] diverged under "
            f"{plan.describe() if plan else 'no faults'}", detail)
        case.last_exc = exc
        case.exit_code = exit_code_for(exc)
        return type(exc).__name__, str(exc)

    def _verdict_batch(self, workload: str, variant: str,
                       plan: Optional[FaultPlan],
                       case: CaseResult) -> Tuple[str, str]:
        """Batch-conformance verdict (3 lanes vs the scalar baseline).

        Fault-free: strict bit identity per lane, cycles included.
        With a plan: the enforced scalar-fallback policy must hold
        (``BatchResult.mode == "sequential"``) and every lane must
        satisfy the LI invariant against the fault-free baseline.
        """
        from ..sim import simulate_batch

        spec = self.pass_spec
        w = get_workload(workload)
        n = 3
        try:
            ref = self._baseline(workload, variant, spec)
            circuit = self._circuit(workload, variant, spec)
            args = list(w.args_for(variant))
            mems = [w.fresh_memory(variant) for _ in range(n)]
            batch = simulate_batch(circuit, mems, [args] * n,
                                   self._params(plan))
        except ReproError as exc:
            case.last_exc = exc
            case.exit_code = exit_code_for(exc)
            return type(exc).__name__, str(exc)
        case.cycles_ref = ref[2]
        detail: Optional[dict] = None
        if plan is not None and batch.mode != "sequential":
            detail = {"policy": {"want": "sequential",
                                 "got": batch.mode}}
        for i in range(n):
            if detail is not None:
                break
            if batch.errors[i] is not None:
                detail = {"lane": i, "lane_error": batch.errors[i]}
                break
            got = (list(batch.results[i].results),
                   list(mems[i].words), batch.results[i].cycles)
            if i == 0:
                case.cycles_run = got[2]
            detail = self._diff(ref, got)
            if detail is None and plan is None and ref[2] != got[2]:
                # Fault-free batching claims bit identity, cycles
                # included; under a plan only behavior must hold.
                detail = {"cycles": {"want": ref[2], "got": got[2]}}
            if detail is not None:
                detail["lane"] = i
        if detail is None:
            return "", ""
        case.last_detail = detail
        exc = LIViolationError(
            f"{workload}/{variant} [batch] diverged "
            f"{'under ' + plan.describe() if plan else 'fault-free'}",
            detail)
        case.last_exc = exc
        case.exit_code = exit_code_for(exc)
        return type(exc).__name__, str(exc)

    # -- the fuzz loop ------------------------------------------------------
    def fuzz(self, workloads: Optional[Sequence[str]] = None,
             n_plans: int = 5, seed: int = 0, intensity: float = 1.0,
             progress: Optional[Callable[[CaseResult], None]] = None
             ) -> FuzzReport:
        """Every workload x N generated plans (x2 with differential)."""
        names = list(workloads) if workloads else workload_names()
        report = FuzzReport(seed=seed, pass_spec=self.pass_spec,
                            differential=self.differential,
                            intensity=intensity)
        plans = [FaultPlan.generate(derive_seed(seed, "plan", i),
                                    intensity)
                 for i in range(n_plans)]
        report.plan_seeds = [p.seed for p in plans]
        with telemetry.tracer().span("fuzz.run", category="verify",
                                     seed=seed, plans=n_plans,
                                     workloads=len(names)) as _sp:
            self._fuzz_cases(names, plans, report, progress)
            _sp.set(cases=len(report.cases),
                    failed=len(report.failures()))
        return report

    def _fuzz_cases(self, names, plans, report, progress) -> None:
        for name in names:
            if self.compare_kernel:
                # Fault-free bit-identity first: the cheapest, most
                # common divergence repro.
                case = self.run_case(name, None, mode="kernel")
                report.cases.append(case)
                if progress is not None:
                    progress(case)
            if self.batch:
                # Fault-free batched bit-identity per lane.
                case = self.run_case(name, None, mode="batch")
                report.cases.append(case)
                if progress is not None:
                    progress(case)
            for plan in plans:
                modes = ["fault"]
                if self.differential and self.pass_spec:
                    modes.append("differential")
                if self.compare_kernel:
                    modes.append("kernel")
                if self.batch:
                    modes.append("batch")
                for mode in modes:
                    case = self.run_case(name, plan, mode=mode)
                    report.cases.append(case)
                    if progress is not None:
                        progress(case)


def replay_bundle(path: str, kernel: Optional[str] = None,
                  max_cycles: int = 2_000_000) -> CaseResult:
    """Re-run the case captured in a repro bundle directory, on the
    kernel it was found on unless ``kernel`` overrides it (bundles
    without a ``kernel`` field replay on the default kernel)."""
    from .artifacts import load_bundle
    manifest = load_bundle(path)
    fuzzer = ConformanceFuzzer(
        pass_spec=manifest.get("passes", ""),
        kernel=kernel or manifest.get("kernel", SimParams.kernel),
        compare_kernel=manifest.get("compare_kernel"),
        max_cycles=max_cycles, minimize=False)
    return fuzzer.run_case(manifest["workload"], manifest["plan"],
                           variant=manifest.get("variant", "base"),
                           mode=manifest.get("mode", "fault"))
