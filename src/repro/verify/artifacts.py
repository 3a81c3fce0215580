"""Replayable failure bundles for the LI-conformance fuzzer.

A bundle is one directory holding everything needed to re-run a failed
fuzz case offline, long after the fuzz run that produced it:

``manifest.json``
    Schema, workload/variant/pass stack, fault mode, the kernel the
    case ran on (and, in mode "kernel", the one it was compared
    with), the minimized fault categories, and the replay command.
``fault_plan.json``
    The (minimized) :class:`repro.sim.faults.FaultPlan` — knobs + seed
    only; every per-site decision re-derives from stable hashes.
``original_plan.json``
    The un-minimized plan as generated, in case minimization masked
    an interaction.
``circuit.json``
    The exact circuit that failed (after the pass stack), via
    :func:`repro.core.serialize.save_circuit`.
``error.json``
    :func:`repro.errors.error_document` of the failure — class, exit
    code, and (for deadlocks) the stall-attributed per-task
    diagnostics with source locations.
``stats.json``
    SimStats of the doomed run when available (the engine stamps
    partial stats onto simulation failures).
``REPRO.txt``
    One human-readable paragraph plus the exact replay command.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..core.serialize import save_circuit
from ..errors import error_document
from ..sim.faults import FaultPlan

BUNDLE_SCHEMA = "repro.bundle/v1"


def _dump(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def write_bundle(directory: str, case_id: str, *, workload: str,
                 variant: str, pass_spec: str, mode: str, kernel: str,
                 plan: FaultPlan, compare_kernel: Optional[str] = None,
                 original_plan: Optional[FaultPlan] = None,
                 circuit=None, error: Optional[BaseException] = None,
                 detail: Optional[dict] = None) -> str:
    """Write one repro bundle; returns the bundle directory path.
    A replay runs on the kernels recorded here unless told otherwise."""
    bundle = os.path.join(directory, case_id)
    n = 1
    while os.path.exists(bundle):
        n += 1
        bundle = os.path.join(directory, f"{case_id}-{n}")
    os.makedirs(bundle)

    replay = f"python -m repro fuzz --replay {bundle}"
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "case": case_id,
        "workload": workload,
        "variant": variant,
        "passes": pass_spec,
        "mode": mode,
        "kernel": kernel,
        "categories": plan.active_categories(),
        "replay": replay,
    }
    if mode == "kernel":
        manifest["compare_kernel"] = compare_kernel
    _dump(os.path.join(bundle, "fault_plan.json"), plan.to_json())
    if original_plan is not None and original_plan != plan:
        _dump(os.path.join(bundle, "original_plan.json"),
              original_plan.to_json())
    if circuit is not None:
        save_circuit(circuit, os.path.join(bundle, "circuit.json"))
        manifest["circuit"] = "circuit.json"
    if error is not None:
        doc = error_document(error)
        if detail:
            doc["detail"] = detail
        _dump(os.path.join(bundle, "error.json"), doc)
        manifest["error"] = {"class": doc["error"],
                             "exit_code": doc["exit_code"]}
        stats = getattr(error, "stats", None)
        if stats is not None:
            _dump(os.path.join(bundle, "stats.json"), stats.to_json())
    elif detail:
        _dump(os.path.join(bundle, "error.json"),
              {"error": "LIViolationError", "detail": detail})
    _dump(os.path.join(bundle, "manifest.json"), manifest)

    lines = [
        f"Fuzz case {case_id} failed.",
        "",
        f"  workload : {workload} (variant {variant})",
        f"  passes   : {pass_spec or '(none)'}",
        f"  mode     : {mode}",
        f"  kernel   : {kernel}"
        + (f" vs {compare_kernel}" if mode == "kernel" else ""),
        f"  faults   : {plan.describe()}",
        "",
        "Replay with:",
        f"  {replay}",
        "",
        "The fault plan is knobs + one seed; every per-site decision",
        "re-derives from stable hashes, so the replay perturbs the",
        "exact same channels, units and grants as the original run.",
    ]
    with open(os.path.join(bundle, "REPRO.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return bundle


def load_bundle(path: str) -> dict:
    """Read a bundle directory back: manifest with ``plan`` attached."""
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"unsupported bundle schema {manifest.get('schema')!r}")
    with open(os.path.join(path, "fault_plan.json")) as fh:
        manifest["plan"] = FaultPlan.from_json(json.load(fh))
    return manifest
