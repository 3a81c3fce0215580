"""Command-line interface: ``python -m repro <command>``.

Commands
--------
translate   MiniC file -> uIR; print stats, optionally dump JSON/dot/Chisel
simulate    compile + optimize + cycle-simulate + verify vs interpreter
synth       report the analytic FPGA/ASIC synthesis estimate
workloads   list the built-in paper workloads
bench       run one built-in workload through a pass stack (--check
            diffs fresh throughput against the committed baseline)
report      cross-layer bottleneck report (sim + opt + synth)
explore     parallel design-space exploration with caching; sweeps
            journal to ``.repro/sweeps`` and resume with ``--resume``
fuzz        LI-conformance fuzzing under seeded fault plans
runs        browse the telemetry run ledger (list | show | diff)
sweeps      browse sweep journals (list | show)
serve       run the evaluation daemon (dedups identical in-flight
            requests, coalesces compatible ones into batched runs,
            streams NDJSON heartbeats + results)
client      talk to a daemon (evaluate | explore | report | health |
            shutdown); `client evaluate` shares its flags with
            `simulate`, so the same invocation runs locally or served

Telemetry: ``--telemetry`` (or ``REPRO_TELEMETRY=1``) traces every
stage, collects metrics, and appends one record per invocation to the
run ledger under ``--telemetry-dir`` (default ``.repro``);
``--telemetry-trace FILE`` additionally writes a unified Perfetto
trace (pipeline spans + cycle-level sim events on one timeline).  The
flags work both globally and after the subcommand.

Pass stacks use the spec mini-language: comma-separated registry names
or aliases, with optional knob arguments — e.g. ``--passes
localize,banking=4,fusion,tiling=2`` (see ``repro.opt.specs``).

Failures exit with a per-error-family code (see
``repro.errors.EXIT_CODES``): parse errors 2, IR/translation 3,
deadlock 4, workload mismatch 5, simulation limits 6, LI-conformance
violations 7, pass errors 8, kernel compilation 10 (with
``--no-kernel-fallback``), quarantined poison points 11, interrupted
sweeps 130 (checkpointed; the message carries the ``--resume`` hint).
``--json-errors`` (global flag, before the subcommand) prints a
machine-readable error document instead of the one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import telemetry
from .errors import EXIT_CODES, ReproError, error_document, \
    exit_code_for
from .rtl import emit_chisel, emit_verilog
from .core.serialize import save_circuit, to_dot
from .sim import FaultPlan, SimParams
from .opt import parse_passes
from .verify import DEFAULT_FUZZ_PASSES


def _fault_plan_from(args) -> Optional[FaultPlan]:
    """--fault-plan FILE wins; else --faults/--fault-seed generate."""
    path = getattr(args, "fault_plan", None)
    if path:
        with open(path) as fh:
            return FaultPlan.from_json(json.load(fh))
    if getattr(args, "faults", False) or \
            getattr(args, "fault_seed", None) is not None:
        return FaultPlan.generate(args.fault_seed or 0,
                                  intensity=args.fault_intensity)
    return None


def _load_pipeline(args):
    """``args.file`` translated and run through ``args.passes``."""
    from .api import Pipeline
    with open(args.file) as fh:
        source = fh.read()
    return Pipeline(source, name=args.file).optimize(args.passes or None)


def _resolve_observe(args) -> str:
    """--obs-level wins; --trace-out implies "trace"."""
    level = getattr(args, "obs_level", None)
    if getattr(args, "trace_out", None):
        if level == "off":
            raise ReproError(
                "--trace-out needs tracing; drop --obs-level off")
        return "trace"
    return level or "counters"


def cmd_translate(args) -> int:
    pipe = _load_pipeline(args)
    circuit = pipe.circuit
    print(circuit)
    for task in circuit.tasks.values():
        print(f"  {task.name:<28} kind={task.kind:<5} "
              f"nodes={len(task.dataflow.nodes):<4} "
              f"tiles={task.num_tiles}")
    for result in pipe.pass_log:
        print(f"  pass {result.pass_name}: changed={result.changed} "
              f"dN={result.delta_nodes} dE={result.delta_edges}")
    if args.json:
        save_circuit(circuit, args.json)
        print(f"wrote {args.json}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(circuit))
        print(f"wrote {args.dot}")
    if args.chisel:
        with open(args.chisel, "w") as fh:
            fh.write(emit_chisel(circuit))
        print(f"wrote {args.chisel}")
    if args.verilog:
        with open(args.verilog, "w") as fh:
            fh.write(emit_verilog(circuit))
        print(f"wrote {args.verilog}")
    return 0


def simulate_request_from(args, source: str):
    """Build the typed :class:`~repro.api.EvaluationRequest` for a
    ``repro simulate`` (or ``repro client evaluate``) invocation.

    This is the API-redesign seam: CLI flags become the same wire
    document the serve daemon accepts, so a local simulate and a
    served one serialize — and therefore dedup and batch — identically.
    """
    from .api import request_for
    observe = _resolve_observe(args)
    plan = _fault_plan_from(args)
    batch_n = args.batch if getattr(args, "batch", None) \
        and args.batch > 1 else None
    params = SimParams(max_cycles=args.max_cycles, kernel=args.kernel,
                       observe=observe,
                       trace_capacity=args.trace_capacity,
                       faults=plan,
                       compile_fallback=not getattr(
                           args, "no_kernel_fallback", False),
                       wallclock_timeout=args.timeout,
                       batch=batch_n)
    raw_args = getattr(args, "args", None)
    return request_for(
        source, args.passes or None, params,
        variant=getattr(args, "variant", "base"),
        check=not getattr(args, "no_check", False),
        name=getattr(args, "file", None),
        args=list(raw_args) if raw_args is not None else None,
        seed=getattr(args, "seed", None)), plan


def cmd_simulate(args) -> int:
    from .api import Pipeline, run_request

    if args.trace_out and args.kernel == "dense":
        raise ReproError(
            "--trace-out requires the event or compiled kernel "
            "(rerun without --kernel dense)")
    with open(args.file) as fh:
        source = fh.read()
    request, plan = simulate_request_from(args, source)
    if plan is not None:
        print(f"faults: {plan.describe()}")
    pipeline = None
    if args.validate_each:
        # Host-local option: run the front end ourselves with per-pass
        # validation, then hand the pipeline to the request executor.
        pipeline = Pipeline(source, name=args.file)
        pipeline.optimize(args.passes or None, validate_each=True)
    t_sim = time.perf_counter()
    pipe, result = run_request(request, pipeline=pipeline)
    t_sim = time.perf_counter() - t_sim
    if request.is_batch:
        return _print_batch(args, pipe, result, t_sim)
    sim = pipe.sim
    if sim.compile_error is not None:
        err = sim.compile_error
        print(f"note: compiled kernel unavailable "
              f"({err.get('error')}: {err.get('message')}); "
              f"ran the event kernel instead", file=sys.stderr)
    print(f"cycles: {sim.cycles}")
    if sim.results:
        print(f"returned: {sim.results}")
    # run_request verifies against the interpreter (a divergence
    # raises WorkloadError, exit 5), so reaching here means OK.
    print("behavior vs interpreter: OK")
    for key, value in sorted(sim.stats.summary().items()):
        print(f"  {key}: {value}")
    if args.profile:
        print(f"\nthroughput: {sim.cycles / t_sim:,.0f} simulated "
              f"cycles/s ({args.kernel} kernel, {t_sim:.3f}s wall)")
        if pipe.pass_log:
            total_ms = sum(r.wall_ms for r in pipe.pass_log)
            print(f"\npass pipeline ({total_ms:.1f}ms):")
            print("pass                      wall_ms   dN      dE")
            for r in pipe.pass_log:
                print(f"{r.pass_name:<25} {r.wall_ms:>7.1f} "
                      f"{r.delta_nodes:>+5d}   {r.delta_edges:>+5d}")
            print(f"{'total':<25} {total_ms:>7.1f}")
        stalls = sim.stats.stall_cycles
        if stalls:
            total = sum(stalls.values())
            print("\nstall attribution (instance-cycles):")
            for cause, cyc in stalls.most_common():
                print(f"  {cause:<16} {cyc:>8}  "
                      f"({100.0 * cyc / total:.1f}%)")
            print("top stalled nodes:")
            for label, cause, cyc in sim.stats.top_stalled_nodes(8):
                print(f"  {label:<32} {cause:<16} {cyc:>8}")
        sources = sim.stats.top_stalled_sources(8)
        if sources:
            print("top stalled source lines:")
            for loc, cause, cyc in sources:
                print(f"  {loc:<36} {cause:<16} {cyc:>8}")
    if args.stats_json:
        sim.stats.dump_json(args.stats_json)
        print(f"wrote {args.stats_json}")
    if args.trace_out:
        if sim.observer is None:
            raise ReproError(
                "--trace-out requires the event or compiled kernel "
                "(rerun without --kernel dense)")
        sim.observer.write_chrome_trace(args.trace_out)
        print(f"wrote {args.trace_out} "
              f"(load in chrome://tracing or Perfetto)")
    return 0


def _print_batch(args, pipe, batch, t_sim: float) -> int:
    """Report a batched simulate (``run_request`` verified every
    surviving lane; a diverging lane raised)."""
    ok = True
    for i in range(batch.lanes):
        if batch.errors[i] is not None:
            err = batch.errors[i]
            print(f"lane {i}: FAILED[{err.get('error')}] "
                  f"fingerprint={err.get('input_fingerprint')}",
                  file=sys.stderr)
            ok = False
    cycles = [r.cycles if r is not None else None
              for r in batch.results]
    print(f"batch: {batch.lanes} lanes, mode={batch.mode}")
    print(f"cycles: {cycles[0] if len(set(cycles)) == 1 else cycles}")
    first = next((r for r in batch.results if r is not None), None)
    if first is not None and first.results:
        print(f"returned: {first.results}")
    print(f"behavior vs interpreter: "
          f"{'OK (all lanes)' if ok else 'MISMATCH'}")
    print(f"throughput: {batch.lanes / t_sim:,.1f} sims/s "
          f"({args.kernel} kernel, {t_sim:.3f}s wall)")
    if args.stats_json:
        batch.stats.dump_json(args.stats_json)
        print(f"wrote {args.stats_json}")
    return 0 if ok else 1


def cmd_synth(args) -> int:
    report = _load_pipeline(args).synthesize().synth
    for key, value in report.row().items():
        print(f"  {key}: {value}")
    return 0


def cmd_workloads(_args) -> int:
    from .workloads import WORKLOADS
    for name, w in WORKLOADS.items():
        variants = "+" + ",".join(w.variants) if w.variants else ""
        print(f"  {name:<10} {w.category:<11} args={w.args} "
              f"{variants}")
    return 0


def cmd_bench(args) -> int:
    if args.check:
        from .bench import check_throughput, render_check
        doc = check_throughput(
            args.baseline,
            workloads=[args.workload] if args.workload else None,
            repeat=args.repeat, threshold=args.threshold)
        print(render_check(doc))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            print(f"wrote {args.json}")
        return 0 if doc["ok"] else 1
    if not args.workload:
        raise ReproError("bench needs a workload name (or --check)")
    params = SimParams(observe=_resolve_observe(args),
                       kernel=args.kernel,
                       trace_capacity=args.trace_capacity)
    if args.batch and args.batch > 1:
        from dataclasses import replace

        from .api import evaluate_many

        t0 = time.perf_counter()
        batch = evaluate_many(args.workload,
                              params=replace(params, batch=args.batch),
                              passes=args.passes or None,
                              variant=args.variant)
        wall = time.perf_counter() - t0
        cyc = next(r.cycles for r in batch.results if r is not None)
        print(f"{args.workload}/{args.passes or 'baseline'}: "
              f"{cyc} cycles x {batch.lanes} lanes "
              f"(mode={batch.mode}) = {batch.lanes / wall:,.1f} sims/s")
        print("behavior verified against the workload golden check "
              "(every lane)")
        return 0 if batch.ok else 1
    from .api import evaluate
    ev = evaluate(args.workload, args.passes or None, params,
                  variant=args.variant)
    print(f"{ev.workload}/{args.passes or 'baseline'}: "
          f"{ev.cycles} cycles "
          f"@ {ev.synth.fpga_mhz:.0f} MHz = {ev.time_us:.2f} us")
    print("behavior verified against the reference interpreter")
    return 0


def cmd_report(args) -> int:
    from .api import request_for, run_request
    from .report import build_report, dump_report, render_markdown
    params = SimParams(kernel=args.kernel, batch=args.batch
                       if args.batch and args.batch > 1 else None)
    # name= keeps table2_row.bench the workload name on --variant runs.
    request = request_for(args.workload, args.passes or None, params,
                          variant=args.variant, name=args.workload)
    pipe, result = run_request(request)
    batch = result if request.is_batch else None
    report = build_report(pipe, args.passes or "baseline",
                          top_n=args.top, batch=batch)
    if args.json or args.md:
        dump_report(report, json_path=args.json, md_path=args.md)
        for path in (args.json, args.md):
            if path:
                print(f"wrote {path}")
    else:
        print(render_markdown(report))
    if args.stats_json:
        stats = batch.stats if batch is not None else pipe.sim.stats
        stats.dump_json(args.stats_json)
        print(f"wrote {args.stats_json}")
    return 0


#: Default ``repro explore`` pipeline template: the paper's img_scale
#: banks x tiles sweep (tiling only once there is more than one tile).
DEFAULT_EXPLORE_TEMPLATE = (
    "localize,banking={banks},fusion,tuning,"
    "pipelining?tiles>1,tiling={tiles}?tiles>1")


def cmd_explore(args) -> int:
    from .dse import (DEFAULT_LEASE_TTL, DEFAULT_SWEEPS_DIR,
                      GridSpace, RandomSpace, RetryPolicy, explore,
                      parse_axis, resume)

    retry = RetryPolicy(max_attempts=max(1, args.retries),
                        base_delay=args.retry_delay)
    sweeps_dir = args.sweeps_dir or DEFAULT_SWEEPS_DIR
    lease_ttl = args.lease_ttl if args.lease_ttl is not None \
        else DEFAULT_LEASE_TTL
    cache = None if args.no_cache else args.cache_dir
    progress = None if args.quiet else \
        (lambda point: print(point.describe()))
    if args.resume:
        report = resume(
            args.resume, sweeps_dir=sweeps_dir,
            workers=args.workers, cache=cache, progress=progress,
            retry=retry, point_timeout=args.point_timeout,
            lease_ttl=lease_ttl)
    else:
        if not args.workload:
            raise ReproError(
                "explore needs a WORKLOAD (or --resume SWEEP)")
        axes = dict(parse_axis(text) for text in args.grid)
        if not axes:
            raise ReproError(
                "explore needs at least one --grid AXIS=V1,V2,...")
        space = RandomSpace(axes, args.random, seed=args.seed) \
            if args.random else GridSpace(axes)
        objectives = [o.strip() for o in args.objectives.split(",")
                      if o.strip()]
        params = SimParams(kernel=args.kernel,
                           max_cycles=args.max_cycles,
                           wallclock_timeout=args.timeout)
        journal = None if args.no_journal else sweeps_dir
        report = explore(
            args.workload, space, pipeline=args.pipeline,
            variant=args.variant, sim=params, workers=args.workers,
            cache=cache, objectives=objectives,
            check=not args.no_check, progress=progress,
            journal=journal, sweep_id=args.sweep_id, retry=retry,
            point_timeout=args.point_timeout, lease_ttl=lease_ttl)
    return _finish_explore(report, report.to_json(), json_path=args.json,
                           md_path=args.md)


def _finish_explore(report, doc, *, json_path: Optional[str],
                    md_path: Optional[str] = None) -> int:
    """Summary, Pareto frontier, report files, failures and the exit
    code of a sweep — local (``repro explore``) or served (``repro
    client explore``)."""
    from .report import render_explore_markdown

    print(report.summary())
    print(f"\nPareto frontier ({' / '.join(report.objectives)}, "
          f"minimized):")
    for index in report.pareto:
        print(f"  {report.point(index).describe()}")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"wrote {json_path}")
    if md_path:
        with open(md_path, "w") as fh:
            fh.write(render_explore_markdown(doc))
        print(f"wrote {md_path}")
    failures = [p for p in report.points if not p.ok]
    for point in failures:
        err = point.error or {}
        print(f"  point {point.index} {point.params}: "
              f"{err.get('error')}: {err.get('message')}",
              file=sys.stderr)
    if not failures:
        return 0
    if len(failures) == len(report.points):
        return (failures[0].error or {}).get("exit_code", 1) or 1
    if any(p.quarantined for p in failures):
        # Distinct exit so CI can tell "a point is poison" apart from
        # ordinary partial failure.
        return EXIT_CODES["PoisonPointError"]
    return 1


def cmd_fuzz(args) -> int:
    from .verify import ConformanceFuzzer, replay_bundle
    if args.replay:
        case = replay_bundle(args.replay, kernel=args.kernel,
                             max_cycles=args.max_cycles)
        print(case.describe())
        if not case.ok:
            print(f"  {case.message}")
        return 0 if case.ok else (case.exit_code or 7)

    workloads = None
    if args.workloads and args.workloads != "all":
        workloads = [w.strip() for w in args.workloads.split(",")
                     if w.strip()]
        from .workloads import get_workload
        for name in workloads:  # fail fast on a typo
            get_workload(name)
    spec = DEFAULT_FUZZ_PASSES if args.passes is None else args.passes
    parse_passes(spec)  # fail fast on a typo, before simulating
    fuzzer = ConformanceFuzzer(
        pass_spec=spec, differential=args.differential,
        artifacts_dir=args.artifacts_dir,
        kernel=args.kernel or SimParams.kernel,
        compare_kernel=args.compare_kernel,
        max_cycles=args.max_cycles, wallclock_timeout=args.timeout,
        minimize=not args.no_minimize, batch=args.batch)
    progress = None if args.quiet else \
        (lambda case: print(case.describe()))
    report = fuzzer.fuzz(workloads=workloads, n_plans=args.plans,
                         seed=args.seed, intensity=args.intensity,
                         progress=progress)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=1, default=str)
        print(f"wrote {args.json}")
    failures = report.failures()
    if not failures:
        return 0
    for case in failures:
        bundle = f" bundle={case.bundle}" if case.bundle else ""
        print(f"  {case.case_id}: {case.error}{bundle}",
              file=sys.stderr)
    return failures[0].exit_code or 7


def _print_run(record: dict) -> None:
    """Human view of one ledger record (``repro runs show``)."""
    print(f"run {record['run_id']}")
    print(f"  ts:      {record['ts']}")
    print(f"  command: {record['command']} "
          f"({' '.join(record['argv'])})")
    print(f"  status:  {record['status']} "
          f"(exit {record['exit_code']}), "
          f"{record['wall_s']:.3f}s wall")
    for key, value in sorted(record.get("annotations", {}).items()):
        print(f"  {key}: {value}")
    if record.get("fingerprints"):
        for fp in record["fingerprints"]:
            print(f"  circuit: {fp}")
    if record.get("stages"):
        print("  stages:")
        for name, ms in sorted(record["stages"].items(),
                               key=lambda kv: -kv[1]):
            print(f"    {name:<28} {ms:>10.3f} ms")
    if record.get("passes"):
        print("  passes:")
        for row in record["passes"]:
            extra = " ".join(f"{k}={v}" for k, v in sorted(row.items())
                             if k not in ("pass", "wall_ms"))
            print(f"    {row['pass']:<28} {row['wall_ms']:>10.3f} ms"
                  f"  {extra}")
    metrics = (record.get("metrics") or {}).get("metrics", [])
    if metrics:
        print("  metrics:")
        for metric in metrics:
            if metric.get("type") == "histogram":
                print(f"    {metric['name']:<36} "
                      f"count={metric['count']} sum={metric['sum']}")
                continue
            for sample in metric.get("samples", []):
                labels = sample.get("labels") or {}
                body = "{" + ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())) \
                    + "}" if labels else ""
                print(f"    {metric['name'] + body:<36} "
                      f"{sample['value']}")
    if record.get("error"):
        err = record["error"]
        print(f"  error: {err.get('error')}: {err.get('message')}")


def cmd_runs(args) -> int:
    from .telemetry import RunLedger, diff_records

    ledger = RunLedger(args.dir or getattr(args, "telemetry_dir",
                                           None))
    try:
        if args.action == "list":
            records, skipped = ledger.records()
            if args.json:
                print(json.dumps(records, indent=1, sort_keys=True))
                return 0
            if not records:
                print(f"(run ledger {ledger.path} is empty)")
                return 0
            for i, r in enumerate(records):
                marker = "" if r["status"] == "ok" \
                    else f"  [{r['status']} exit {r['exit_code']}]"
                print(f"  {i - len(records):>4}  {r['run_id']}  "
                      f"{r['ts']}  {r['command']:<10} "
                      f"{r['wall_s']:>8.3f}s{marker}")
            if skipped:
                print(f"  ({skipped} corrupt line(s) skipped)",
                      file=sys.stderr)
            return 0
        if args.action == "show":
            record = ledger.find(args.refs[0] if args.refs else "last")
            if args.json:
                print(json.dumps(record, indent=1, sort_keys=True))
            else:
                _print_run(record)
            return 0
        if args.action == "diff":
            if len(args.refs) != 2:
                raise ReproError(
                    "runs diff needs exactly two run references "
                    "(run_id prefix, index, or 'last')")
            diff = diff_records(ledger.find(args.refs[0]),
                                ledger.find(args.refs[1]))
            if args.json:
                print(json.dumps(diff, indent=1, sort_keys=True))
                return 0
            print(f"a: {diff['a']['run_id']} ({diff['a']['command']}, "
                  f"{diff['a']['wall_s']}s)")
            print(f"b: {diff['b']['run_id']} ({diff['b']['command']}, "
                  f"{diff['b']['wall_s']}s)")
            for title, rows in (("stages (ms)", diff["stages_ms"]),
                                ("metrics", diff["metrics"])):
                if not rows:
                    continue
                print(f"  {title}:")
                for row in rows:
                    delta = f"  d={row['delta']:+}" \
                        if "delta" in row else ""
                    ratio = f"  x{row['ratio']}" \
                        if "ratio" in row else ""
                    print(f"    {row['key']:<40} "
                          f"{row['a'] if row['a'] is not None else '-':>12} "
                          f"-> "
                          f"{row['b'] if row['b'] is not None else '-':>12}"
                          f"{delta}{ratio}")
            return 0
    except LookupError as exc:
        raise ReproError(str(exc)) from exc
    raise ReproError(f"unknown runs action {args.action!r}")


def cmd_sweeps(args) -> int:
    from .dse import DEFAULT_SWEEPS_DIR, list_sweeps, resolve_sweep

    sweeps_dir = args.dir or DEFAULT_SWEEPS_DIR
    if args.action == "list":
        rows = list_sweeps(sweeps_dir)
        if args.json:
            print(json.dumps(rows, indent=1, sort_keys=True))
            return 0
        if not rows:
            print(f"(no sweep journals under {sweeps_dir})")
            return 0
        for i, r in enumerate(rows):
            print(f"  {i - len(rows):>4}  {r['sweep_id']}  "
                  f"{r['ts']}  {r['workload']:<12} "
                  f"{r['status']:<12} {r['done']}/{r['planned']} "
                  f"done, {r['failed']} failed, "
                  f"{r['quarantined']} quarantined")
        return 0
    if args.action == "show":
        journal = resolve_sweep(args.refs[0] if args.refs else "last",
                                sweeps_dir)
        state = journal.state()
        if args.json:
            doc = {
                "summary": state.summary(),
                "journal": journal.path,
                "points": [{
                    "key": ps.key, "index": ps.index,
                    "params": ps.params, "pass_spec": ps.pass_spec,
                    "status": ps.status, "attempts": ps.attempts,
                    "error": ps.error,
                } for ps in state.ordered()],
            }
            print(json.dumps(doc, indent=1, sort_keys=True))
            return 0
        s = state.summary()
        plan = state.plan or {}
        print(f"sweep {state.sweep_id}")
        print(f"  ts:       {s['ts']}")
        print(f"  workload: {s['workload']} "
              f"(variant {s['variant']})")
        if plan.get("template"):
            print(f"  template: {plan['template']}")
        print(f"  status:   {s['status']}")
        print(f"  points:   {s['planned']} planned, {s['done']} done, "
              f"{s['failed']} failed, {s['quarantined']} quarantined, "
              f"{s['todo']} todo")
        if s["interrupts"]:
            print(f"  interrupts: {s['interrupts']}")
        if state.skipped_lines:
            print(f"  ({state.skipped_lines} corrupt journal "
                  f"line(s) skipped)", file=sys.stderr)
        for ps in state.ordered():
            label = " ".join(f"{k}={v}" for k, v in ps.params.items())
            line = f"  [{ps.index}] {label}: {ps.status}"
            if ps.attempts:
                line += f" ({ps.attempts} failed attempt(s))"
            if ps.error:
                line += (f" -- {ps.error.get('error')}: "
                         f"{ps.error.get('message')}")
            print(line)
        if s["status"] != "complete":
            print(f"\nresume with: repro explore --resume "
                  f"{state.sweep_id}")
        return 0
    raise ReproError(f"unknown sweeps action {args.action!r}")


DEFAULT_SERVE_ADDRESS = "127.0.0.1:8651"


def cmd_serve(args) -> int:
    import asyncio

    from .serve import PROTOCOL, ServeServer
    from .supervise import RetryPolicy

    retry = RetryPolicy(max_attempts=max(1, args.retries),
                        base_delay=args.retry_delay)
    # With telemetry on, the scheduler appends one ledger record per
    # served request (the CLI's own per-invocation record still covers
    # the daemon process itself).
    ledger_root = None
    if telemetry.enabled():
        ledger_root = getattr(args, "telemetry_dir", None) or ".repro"
    server = ServeServer(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, executor=args.executor,
        max_batch=args.max_batch, heartbeat_s=args.heartbeat,
        retry=retry, job_timeout=args.job_timeout,
        ledger_root=ledger_root)

    async def _main():
        await server.start()
        print(f"serving {PROTOCOL} on {server.address} "
              f"({server.scheduler.workers} worker(s), "
              f"executor={server.scheduler.executor_kind}, "
              f"max-batch={args.max_batch})", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    return 0


def _make_client(args):
    from .serve import ServeClient
    on_heartbeat = None
    if not args.quiet:
        def on_heartbeat(event):
            state = event.get("state", "?")
            extra = f" {event.get('done')}/{event.get('total')}" \
                if event.get("total") is not None else ""
            print(f"  .. {state}{extra} "
                  f"(elapsed {event.get('elapsed_s', 0.0):g}s, "
                  f"queue {event.get('queue_depth', 0)})",
                  file=sys.stderr)
    return ServeClient(args.address, timeout=args.client_timeout,
                       connect_timeout=args.connect_timeout,
                       on_heartbeat=on_heartbeat)


def cmd_client_evaluate(args) -> int:
    import os

    client = _make_client(args)
    target = args.target
    if os.path.exists(target):
        with open(target) as fh:
            source = fh.read()
        args.file = target  # names the request after the source file
    else:
        source = target  # a workload name
        if not args.args:
            args.args = None  # workload defaults (golden check)
    request, plan = simulate_request_from(args, source)
    if plan is not None:
        print(f"faults: {plan.describe()}")
    response = client.evaluate(request)
    if args.json:
        print(json.dumps(response.to_json(), indent=1,
                         sort_keys=True))
    if response.status != "ok":
        err = response.error or {}
        print(f"error: {err.get('error')}: {err.get('message')} "
              f"(family {err.get('family')})", file=sys.stderr)
        return int(err.get("exit_code") or 1)
    meta = response.meta or {}
    served = f"served in {meta.get('wall_s', 0.0):g}s"
    if meta.get("lru"):
        served += f", circuit cache {meta['lru']}"
    if response.lanes is not None:
        ok = [doc for doc in response.lanes if "error" not in doc]
        cycles = sorted({doc.get("cycles") for doc in ok})
        print(f"batch: {len(response.lanes)} lanes, "
              f"{len(response.lanes) - len(ok)} failed ({served})")
        if cycles:
            print(f"cycles: "
                  f"{cycles[0] if len(cycles) == 1 else cycles}")
        return 0 if len(ok) == len(response.lanes) else 1
    ev = response.evaluation or {}
    print(f"{ev.get('name')}: {ev.get('cycles')} cycles"
          + (f" = {ev.get('time_us'):.2f} us"
             if ev.get("time_us") is not None else "")
          + f" ({served})")
    if ev.get("verified"):
        print("behavior verified (server-side golden check)")
    return 0


def cmd_client_explore(args) -> int:
    from .dse import ExploreReport, parse_axis

    client = _make_client(args)
    axes = dict(parse_axis(text) for text in args.grid)
    if not axes:
        raise ReproError(
            "client explore needs at least one --grid AXIS=V1,V2,...")
    spec = {"workload": args.workload, "grid": axes,
            "pipeline": args.pipeline, "variant": args.variant,
            "sim": {"kernel": args.kernel,
                    "max_cycles": args.max_cycles},
            "check": not args.no_check,
            "objectives": [o.strip() for o in
                           args.objectives.split(",") if o.strip()]}
    doc = client.explore(spec)
    report = ExploreReport.from_json(doc)
    for point in report.points:
        print(point.describe())
    counters = doc.get("scheduler", {}).get("counters", {})
    print(f"served in {report.wall_s:g}s "
          f"(dedup {counters.get('dedup_hits', 0)}, "
          f"batches {counters.get('batches', 0)}, "
          f"coalesced lanes {counters.get('coalesced_lanes', 0)})")
    return _finish_explore(report, doc, json_path=args.json)


def cmd_client_report(args) -> int:
    client = _make_client(args)
    doc = client.report()
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    sched = doc.get("scheduler", {})
    print(f"daemon pid {doc.get('pid')} ({doc.get('protocol')}), "
          f"up {sched.get('uptime_s', 0.0):g}s")
    print(f"  workers: {sched.get('workers')} "
          f"({sched.get('executor')}), max-batch "
          f"{sched.get('max_batch')}")
    print(f"  queue depth: {sched.get('queue_depth')}, inflight: "
          f"{sched.get('inflight')}")
    for key, value in sorted(sched.get("counters", {}).items()):
        print(f"  {key}: {value}")
    return 0


def cmd_client_shutdown(args) -> int:
    client = _make_client(args)
    doc = client.shutdown()
    print(doc.get("status", "ok"))
    return 0


def cmd_client_health(args) -> int:
    client = _make_client(args)
    doc = client.health()
    print(f"{doc.get('status')} (pid {doc.get('pid')}, "
          f"up {doc.get('uptime_s', 0.0):g}s)")
    return 0 if doc.get("status") == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json-errors", action="store_true",
                        help="print failures as a JSON error document "
                             "(global flag; give it before the "
                             "subcommand)")
    parser.add_argument("--telemetry", action="store_true",
                        help="trace stages, collect metrics, and "
                             "append this run to the run ledger")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="run-ledger directory (default: .repro)")
    parser.add_argument("--telemetry-trace", default=None,
                        metavar="FILE",
                        help="write a unified Perfetto trace of the "
                             "run (implies --telemetry)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared once as parent parsers so sibling
    # subcommands (simulate / bench / report / explore / client ...)
    # cannot drift apart: the same flag always spells and parses the
    # same way everywhere it appears.
    passes_flags = argparse.ArgumentParser(add_help=False)
    passes_flags.add_argument(
        "--passes", default="",
        help="comma-separated uopt pass spec, e.g. "
             "localize,banking=4,fusion (see repro.opt.specs)")
    variant_flags = argparse.ArgumentParser(add_help=False)
    variant_flags.add_argument("--variant", default="base",
                               help="workload source variant")
    kernel_flags = argparse.ArgumentParser(add_help=False)
    kernel_flags.add_argument("--kernel", default=SimParams.kernel,
                              choices=("event", "dense", "compiled"),
                              help="simulation kernel "
                                   f"(default: {SimParams.kernel})")
    batch_flags = argparse.ArgumentParser(add_help=False)
    batch_flags.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="simulate N independent instances in one batched run")
    limit_flags = argparse.ArgumentParser(add_help=False)
    limit_flags.add_argument("--max-cycles", type=int,
                             default=SimParams.max_cycles)
    limit_flags.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="wall-clock watchdog for the "
                                  "simulation")
    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument("--faults", action="store_true",
                             help="inject a generated fault plan "
                                  "(LI check: cycles change, "
                                  "behavior must not)")
    fault_flags.add_argument("--fault-seed", type=int, default=None,
                             metavar="N",
                             help="fault plan seed (implies "
                                  "--faults; default 0)")
    fault_flags.add_argument("--fault-plan", default=None,
                             metavar="FILE",
                             help="load a fault plan JSON (e.g. from "
                                  "a repro bundle) instead of "
                                  "generating one")
    fault_flags.add_argument("--fault-intensity", type=float,
                             default=1.0, metavar="X",
                             help="scale generated fault rates and "
                                  "magnitudes")
    client_flags = argparse.ArgumentParser(add_help=False)
    client_flags.add_argument(
        "--address", default=DEFAULT_SERVE_ADDRESS, metavar="ADDR",
        help="daemon address: host:port, :port, or unix:/path "
             f"(default {DEFAULT_SERVE_ADDRESS})")
    client_flags.add_argument("--client-timeout", type=float,
                              default=300.0, metavar="SECONDS",
                              help="max silence (no event, not even "
                                   "a heartbeat) before giving up")
    client_flags.add_argument("--connect-timeout", type=float,
                              default=5.0, metavar="SECONDS")
    client_flags.add_argument("--quiet", action="store_true",
                              help="suppress heartbeat progress "
                                   "lines")

    def add_common(p):
        p.add_argument("file", help="MiniC source file")

    def add_telemetry(p):
        # Mirrors of the global flags so ``repro report --telemetry``
        # works too; SUPPRESS keeps an omitted sub-level flag from
        # clobbering the globally parsed value.
        p.add_argument("--telemetry", action="store_true",
                       default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--telemetry-dir", metavar="DIR",
                       default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--telemetry-trace", metavar="FILE",
                       default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)

    p = sub.add_parser("translate", parents=[passes_flags],
                       help="MiniC -> uIR (+dumps)")
    add_common(p)
    p.add_argument("--json", help="write circuit JSON here")
    p.add_argument("--dot", help="write Graphviz dot here")
    p.add_argument("--chisel", help="write Chisel text here")
    p.add_argument("--verilog", help="write Verilog skeleton here")
    p.set_defaults(fn=cmd_translate)

    def add_observe(p):
        p.add_argument("--obs-level", default=None,
                       choices=("off", "counters", "trace"),
                       help="observability level (default: counters; "
                            "--trace-out implies trace)")
        p.add_argument("--trace-capacity", type=int, default=65536,
                       metavar="N",
                       help="trace ring-buffer capacity in events")

    p = sub.add_parser("simulate",
                       parents=[passes_flags, kernel_flags,
                                batch_flags, fault_flags,
                                limit_flags],
                       help="cycle-simulate + verify")
    add_common(p)
    p.add_argument("--args", nargs="*", default=[],
                   help="main() arguments")
    p.add_argument("--seed", type=int, default=None,
                   help="seed array contents pseudo-randomly")
    p.add_argument("--no-kernel-fallback", action="store_true",
                   help="with the compiled kernel, raise (exit code "
                        "10) instead of falling back to the event "
                        "kernel when compilation fails")
    p.add_argument("--profile", action="store_true",
                   help="print throughput, per-pass timing and "
                        "stall attribution")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome-trace JSON of sim events")
    p.add_argument("--stats-json", default=None, metavar="FILE",
                   help="dump SimStats (schema repro.simstats/v3)")
    p.add_argument("--validate-each", action="store_true",
                   help="validate the circuit after every pass")
    add_observe(p)
    add_telemetry(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("synth", parents=[passes_flags],
                       help="FPGA/ASIC quality estimate")
    add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("workloads", help="list built-in workloads")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("bench",
                       parents=[passes_flags, variant_flags,
                                kernel_flags, batch_flags],
                       help="run a built-in workload, or "
                            "--check fresh throughput vs the "
                            "committed baseline")
    p.add_argument("workload", nargs="?", default=None,
                   help="workload name (optional with --check: "
                        "default is every baseline workload)")
    p.add_argument("--check", action="store_true",
                   help="re-measure kernel throughput and fail if it "
                        "regresses against the committed "
                        "BENCH_sim_throughput.json baseline")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="committed baseline JSON for --check "
                        "(default: benchmarks/results/"
                        "BENCH_sim_throughput.json)")
    p.add_argument("--threshold", type=float, default=0.2,
                   metavar="X",
                   help="--check tolerance: fresh speedup geomeans "
                        "may lag the committed ones by this fraction "
                        "(default 0.2)")
    p.add_argument("--repeat", type=int, default=3, metavar="N",
                   help="--check timing rounds per kernel (default 3)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the --check document here")
    add_observe(p)
    add_telemetry(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "report", parents=[passes_flags, variant_flags, batch_flags,
                           kernel_flags],
        help="cross-layer bottleneck report for a workload "
             "(add perf_counters to --passes for hardware counters)")
    p.add_argument("workload")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the top-stalled-sources table")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the report JSON here")
    p.add_argument("--md", default=None, metavar="FILE",
                   help="write the markdown report here")
    p.add_argument("--stats-json", default=None, metavar="FILE",
                   help="also dump the raw SimStats document")
    add_telemetry(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "explore", parents=[variant_flags, kernel_flags, limit_flags],
        help="parallel design-space exploration with caching")
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument("--grid", action="append", default=[],
                   metavar="AXIS=V1,V2,...",
                   help="one design axis (repeatable), e.g. "
                        "--grid banks=1,2,4 --grid tiles=1,2,4; "
                        "sim.* axes override SimParams fields")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="sample N points from the grid instead of "
                        "the full cross product (seeded)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-space sampling seed")
    p.add_argument("--pipeline", default=DEFAULT_EXPLORE_TEMPLATE,
                   metavar="TEMPLATE",
                   help="pass-spec template; {axis} substitutes, "
                        "'seg?axis>1' guards a segment (default: "
                        "the img_scale banks x tiles sweep)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes (default: min(4, cpus))")
    p.add_argument("--cache-dir", default=".repro-cache",
                   metavar="DIR",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="evaluate every point fresh")
    p.add_argument("--objectives", default="time_us,alms",
                   help="comma-separated minimized metrics for the "
                        "Pareto frontier (time_us, cycles, alms, "
                        "regs, dsps, fpga_mw, asic_area_kum2, "
                        "asic_mw)")
    p.add_argument("--no-check", action="store_true",
                   help="skip behavior verification per point")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the explore report JSON here")
    p.add_argument("--md", default=None, metavar="FILE",
                   help="write the markdown report here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--resume", default=None, metavar="SWEEP",
                   help="finish an interrupted sweep from its journal "
                        "(sweep id, unique prefix, or 'last'); "
                        "re-evaluates only missing points")
    p.add_argument("--sweeps-dir", default=None, metavar="DIR",
                   help="sweep-journal directory (default: "
                        ".repro/sweeps)")
    p.add_argument("--no-journal", action="store_true",
                   help="do not journal this sweep (it cannot be "
                        "resumed or sharded)")
    p.add_argument("--sweep-id", default=None, metavar="ID",
                   help="explicit sweep id (default: generated); "
                        "concurrent processes given the same id and "
                        "sweeps dir shard one sweep by lease")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per point for transient "
                        "failures (worker death, watchdog, OSError); "
                        "deterministic failures never retry "
                        "(default: 3)")
    p.add_argument("--retry-delay", type=float, default=0.25,
                   metavar="SECONDS",
                   help="base exponential-backoff delay between "
                        "retries (default: 0.25)")
    p.add_argument("--point-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="supervisor-side wall-clock deadline per "
                        "point; a hung worker is killed and the "
                        "point retried")
    p.add_argument("--lease-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="journal lease TTL for multi-process "
                        "sharding (default: 300)")
    add_telemetry(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "fuzz", help="LI-conformance fuzzing under seeded fault plans")
    # Its own limit flags: fuzz defaults a shorter cycle budget, and
    # set_defaults() on a subparser would rewrite the default of the
    # --max-cycles action every command shares through limit_flags.
    p.add_argument("--max-cycles", type=int, default=2_000_000)
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock watchdog for the simulation")
    # Its own --kernel, unset by default, so a replay can tell it was
    # not given.
    p.add_argument("--kernel", default=None,
                   choices=("event", "dense", "compiled"),
                   help=f"kernel under test (default: {SimParams.kernel};"
                        " --replay defaults to the kernel the bundle "
                        "records)")
    p.add_argument("--workloads", default="all",
                   help="comma-separated workload names (default: all)")
    p.add_argument("--plans", type=int, default=5, metavar="N",
                   help="fault plans per workload (default: 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; plans and verdicts are "
                        "deterministic from it")
    p.add_argument("--intensity", type=float, default=1.0, metavar="X",
                   help="scale fault rates and magnitudes")
    p.add_argument("--passes", default=None,
                   help="pass stack under test (default: the full "
                        "uopt pipeline; pass '' for none)")
    p.add_argument("--differential", action="store_true",
                   help="also compare base vs instrumented circuit "
                        "under the same plan")
    p.add_argument("--artifacts-dir", default=None, metavar="DIR",
                   help="write replayable repro bundles for failures")
    p.add_argument("--compare-kernel", default=None,
                   choices=("event", "dense", "compiled"),
                   help="also run every case on this kernel (not "
                        "--kernel itself) and require bit-identical "
                        "behavior including cycle counts")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the fuzz report JSON here")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip fault-category minimization on failure")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-case progress lines")
    p.add_argument("--replay", default=None, metavar="DIR",
                   help="re-run the case captured in a repro bundle")
    p.add_argument("--batch", action="store_true",
                   help="add batch-conformance cases: per-lane "
                        "identity of batched runs, and the enforced "
                        "scalar fallback under fault plans")
    add_telemetry(p)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "runs", help="browse the telemetry run ledger")
    p.add_argument("action", choices=("list", "show", "diff"),
                   help="list all runs / show one / diff two")
    p.add_argument("refs", nargs="*",
                   help="run reference(s): run_id prefix, index "
                        "(-2 = second newest), or 'last'")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="ledger directory (default: .repro, or "
                        "--telemetry-dir)")
    p.add_argument("--json", action="store_true",
                   help="print records as JSON")
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser(
        "sweeps", help="browse sweep journals")
    p.add_argument("action", choices=("list", "show"),
                   help="list all sweeps / show one")
    p.add_argument("refs", nargs="*",
                   help="sweep reference: id prefix or 'last'")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="sweeps directory (default: .repro/sweeps)")
    p.add_argument("--json", action="store_true",
                   help="print records as JSON")
    p.set_defaults(fn=cmd_sweeps)

    p = sub.add_parser(
        "serve",
        help="run the evaluation daemon (HTTP-lite/NDJSON; dedups "
             "identical in-flight requests, coalesces compatible "
             "ones into batched runs)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8651,
                   help="TCP port (0 picks a free one; default 8651)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="serve on a Unix socket instead of TCP")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker pool size (default: min(4, cpus))")
    p.add_argument("--executor", default="process",
                   choices=("process", "thread"),
                   help="worker pool kind (process pools survive "
                        "worker crashes; default process)")
    p.add_argument("--max-batch", type=int, default=8, metavar="N",
                   help="max compatible scalar requests coalesced "
                        "into one batched simulation (default 8)")
    p.add_argument("--heartbeat", type=float, default=2.0,
                   metavar="SECONDS",
                   help="heartbeat interval on open connections")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="supervisor-side deadline per request (a "
                        "lane-group of N gets N times it); a hung "
                        "worker is killed and the request retried")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per job for transient failures "
                        "(default: 3)")
    p.add_argument("--retry-delay", type=float, default=0.25,
                   metavar="SECONDS",
                   help="base exponential-backoff delay (default: "
                        "0.25)")
    add_telemetry(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a repro serve daemon")
    csub = p.add_subparsers(dest="action", required=True)

    c = csub.add_parser(
        "evaluate",
        parents=[client_flags, passes_flags, variant_flags,
                 kernel_flags, batch_flags, fault_flags, limit_flags],
        help="evaluate a workload or MiniC file on the daemon")
    c.add_argument("target",
                   help="workload name or MiniC source file")
    c.add_argument("--args", nargs="*", default=[],
                   help="main() arguments (source files only)")
    c.add_argument("--seed", type=int, default=None,
                   help="seed array contents pseudo-randomly "
                        "(source files only)")
    c.add_argument("--no-check", action="store_true",
                   help="skip server-side behavior verification")
    c.add_argument("--json", action="store_true",
                   help="print the full response document")
    add_observe(c)
    c.set_defaults(fn=cmd_client_evaluate)

    c = csub.add_parser(
        "explore",
        parents=[client_flags, variant_flags, kernel_flags],
        help="run a sweep through the daemon's queue")
    c.add_argument("workload")
    c.add_argument("--grid", action="append", default=[],
                   metavar="AXIS=V1,V2,...",
                   help="one design axis (repeatable)")
    c.add_argument("--pipeline", default=DEFAULT_EXPLORE_TEMPLATE,
                   metavar="TEMPLATE",
                   help="pass-spec template ({axis} substitutes, "
                        "'seg?axis>1' guards)")
    c.add_argument("--objectives", default="time_us,alms")
    c.add_argument("--max-cycles", type=int,
                   default=SimParams.max_cycles)
    c.add_argument("--no-check", action="store_true")
    c.add_argument("--json", default=None, metavar="FILE",
                   help="write the explore report JSON here")
    c.set_defaults(fn=cmd_client_explore)

    c = csub.add_parser("report", parents=[client_flags],
                        help="scheduler counters + queue state")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_client_report)

    c = csub.add_parser("health", parents=[client_flags],
                        help="liveness probe")
    c.set_defaults(fn=cmd_client_health)

    c = csub.add_parser("shutdown", parents=[client_flags],
                        help="stop the daemon gracefully")
    c.set_defaults(fn=cmd_client_shutdown)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "telemetry_trace", None)
    wants_telemetry = bool(getattr(args, "telemetry", False)
                           or trace_out
                           or telemetry.env_requests_telemetry())
    if wants_telemetry:
        telemetry.enable()
    started = time.time()
    t0 = time.perf_counter()
    status, code, err_doc = "ok", 0, None
    try:
        code = args.fn(args)
        if code != 0:
            status = "failed"
    except ReproError as exc:
        if getattr(args, "json_errors", False):
            print(json.dumps(error_document(exc), indent=1,
                             default=str))
        else:
            print(f"error: {exc}", file=sys.stderr)
        status, code = "error", exit_code_for(exc)
        err_doc = error_document(exc)
    if wants_telemetry:
        _finish_telemetry(args, argv, status=status, code=code,
                          wall_s=time.perf_counter() - t0,
                          started=started, error=err_doc,
                          trace_out=trace_out)
    return code


def _finish_telemetry(args, argv, *, status: str, code: int,
                      wall_s: float, started: float, error,
                      trace_out: Optional[str]) -> None:
    """Append this invocation to the run ledger (+ optional Perfetto
    trace).  Browsing the ledger (or the sweep journals) is not
    itself a run worth recording, so ``repro runs`` and ``repro
    sweeps`` skip the append."""
    from .telemetry import RunLedger

    try:
        if trace_out:
            telemetry.write_perfetto(trace_out)
            print(f"wrote {trace_out} (open in ui.perfetto.dev "
                  f"or chrome://tracing)", file=sys.stderr)
        if args.command not in ("runs", "sweeps"):
            record = telemetry.collect_record(
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                status=status, exit_code=code, wall_s=wall_s,
                started=started, error=error)
            ledger = RunLedger(getattr(args, "telemetry_dir", None))
            run_id = ledger.append(record)
            print(f"telemetry: recorded run {run_id} "
                  f"({ledger.path})", file=sys.stderr)
    except OSError as exc:
        print(f"telemetry: could not persist run data: {exc}",
              file=sys.stderr)
    finally:
        telemetry.disable()


if __name__ == "__main__":
    raise SystemExit(main())
