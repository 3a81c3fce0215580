"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.sim import SimParams

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i]; }
}
"""


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "saxpy.mc"
    path.write_text(SRC)
    return str(path)


class TestTranslate:
    def test_basic(self, src_file, capsys):
        assert main(["translate", src_file]) == 0
        out = capsys.readouterr().out
        assert "AcceleratorCircuit" in out
        assert "kind=loop" in out

    def test_with_passes(self, src_file, capsys):
        assert main(["translate", src_file,
                     "--passes", "memory_localization,op_fusion"]) == 0
        out = capsys.readouterr().out
        assert "pass memory_localization" in out

    def test_unknown_pass(self, src_file, capsys):
        assert main(["translate", src_file, "--passes", "warp"]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_dumps(self, src_file, tmp_path, capsys):
        jsonp = str(tmp_path / "c.json")
        dotp = str(tmp_path / "c.dot")
        chiselp = str(tmp_path / "c.scala")
        vp = str(tmp_path / "c.v")
        assert main(["translate", src_file, "--json", jsonp,
                     "--dot", dotp, "--chisel", chiselp,
                     "--verilog", vp]) == 0
        data = json.load(open(jsonp))
        assert data["format"] == 1
        assert open(dotp).read().startswith("digraph")
        assert "TaskModule" in open(chiselp).read()
        assert "module" in open(vp).read()


class TestSimulate:
    def test_verifies(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "behavior vs interpreter: OK" in out
        assert "cycles:" in out

    def test_with_passes(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--seed", "3", "--passes",
                     "memory_localization,scratchpad_banking"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_wrong_arity(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16"]) == 2
        assert "argument" in capsys.readouterr().err

    def test_obs_level_off(self, src_file, tmp_path, capsys):
        statsp = str(tmp_path / "stats.json")
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--obs-level", "off",
                     "--stats-json", statsp]) == 0
        stats = json.load(open(statsp))
        assert stats["stall_cycles"] == {}
        assert stats["source_stalls"] == {}

    def test_trace_out_implies_trace_level(self, src_file, tmp_path,
                                           capsys):
        tracep = str(tmp_path / "trace.json")
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--trace-out", tracep,
                     "--trace-capacity", "128"]) == 0
        doc = json.load(open(tracep))
        assert doc["traceEvents"]
        assert len(doc["traceEvents"]) <= 128

    def test_trace_out_conflicts_with_obs_off(self, src_file, tmp_path,
                                              capsys):
        tracep = str(tmp_path / "trace.json")
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--obs-level", "off",
                     "--trace-out", tracep]) == 2
        assert "obs-level" in capsys.readouterr().err

    def test_trace_out_with_batch_is_a_usage_error(self, src_file,
                                                   tmp_path, capsys):
        # A batched run has no single trace to write, so it fails
        # before simulating instead of exiting 0 without the file.
        tracep = tmp_path / "trace.json"
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--batch", "3", "--trace-out", str(tracep)]) == 2
        assert "--batch" in capsys.readouterr().err
        assert not tracep.exists()

    def test_seeded_batch_matches_seeded_scalar(self, src_file, capsys):
        def cycles_line(out):
            return next(line for line in out.splitlines()
                        if line.startswith("cycles:"))

        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--seed", "5"]) == 0
        scalar = capsys.readouterr().out
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--seed", "5", "--batch", "3"]) == 0
        batched = capsys.readouterr().out
        assert "batch: 3 lanes, mode=" in batched
        assert "behavior vs interpreter: OK (all lanes)" in batched
        assert cycles_line(batched) == cycles_line(scalar)

    def test_failed_batch_exits_like_scalar(self, src_file, capsys):
        # A lane that never finished is a failure, not a behaviour
        # mismatch: the batch exits with its scalar run's code.
        run = ["simulate", src_file, "--args", "16", "2.0",
               "--max-cycles", "50"]
        assert main(run) == 6
        capsys.readouterr()
        assert main(run + ["--batch", "2"]) == 6
        captured = capsys.readouterr()
        assert "MISMATCH" not in captured.out
        assert "lane 1: SimulationTimeout: exceeded max_cycles=50" in \
            captured.err

    def test_compiled_kernel(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--seed", "5", "--kernel", "compiled"]) == 0
        assert "behavior vs interpreter: OK" in capsys.readouterr().out

    def test_removed_trace_kernel_is_a_usage_error(self, src_file,
                                                   capsys):
        # kernel="trace" was removed; old scripts must fail loudly.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", src_file, "--args", "16", "2.0",
                  "--kernel", "trace"])
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_removed_event_kernel_is_a_usage_error(self, src_file,
                                                   capsys):
        # kernel="event" was removed too: compiled simulates, dense
        # checks, and nothing stands in for the old name.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", src_file, "--args", "16", "2.0",
                  "--kernel", "event"])
        assert exc.value.code == 2
        assert "invalid choice: 'event'" in capsys.readouterr().err

    def test_compiled_kernel_supports_trace_out(self, src_file,
                                                tmp_path, capsys):
        tracep = str(tmp_path / "trace.json")
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--kernel", "compiled",
                     "--trace-out", tracep]) == 0
        assert json.load(open(tracep))["traceEvents"]

    def test_simulate_source_lines_in_profile(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "top stalled source lines:" in out
        assert "saxpy.mc:" in out


class TestOthers:
    def test_synth(self, src_file, capsys):
        assert main(["synth", src_file]) == 0
        out = capsys.readouterr().out
        assert "MHz" in out and "ALMs" in out

    def test_workloads_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "relu_t" in out

    def test_bench(self, capsys):
        assert main(["bench", "spmv", "--passes", "op_fusion"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "verified" in out

    def test_bench_tensor_variant(self, capsys):
        assert main(["bench", "relu_t", "--variant", "tensor"]) == 0

    def test_bench_obs_level_flag(self, capsys):
        assert main(["bench", "spmv", "--obs-level", "off"]) == 0
        assert "verified" in capsys.readouterr().out


class TestFaultInjection:
    def test_simulate_with_generated_faults(self, src_file, capsys):
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--faults", "--fault-seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "faults: FaultPlan(seed=5" in out
        assert "behavior vs interpreter: OK" in out

    def test_simulate_with_fault_plan_file(self, src_file, tmp_path,
                                           capsys):
        from repro.sim import FaultPlan
        planp = str(tmp_path / "plan.json")
        with open(planp, "w") as fh:
            json.dump(FaultPlan.generate(3).to_json(), fh)
        assert main(["simulate", src_file, "--args", "16", "2.0",
                     "--fault-plan", planp]) == 0
        assert "behavior vs interpreter: OK" in \
            capsys.readouterr().out

    def test_forced_freeze_exits_with_deadlock_code(self, src_file,
                                                    tmp_path, capsys):
        from repro.sim import FaultPlan
        planp = str(tmp_path / "freeze.json")
        with open(planp, "w") as fh:
            json.dump(FaultPlan(seed=1, freeze_at=40).to_json(), fh)
        rc = main(["simulate", src_file, "--args", "16", "2.0",
                   "--fault-plan", planp])
        assert rc == 4
        assert "deadlock" in capsys.readouterr().err.lower()

    def test_json_errors_document(self, src_file, tmp_path, capsys):
        from repro.sim import FaultPlan
        planp = str(tmp_path / "freeze.json")
        with open(planp, "w") as fh:
            json.dump(FaultPlan(seed=1, freeze_at=40).to_json(), fh)
        rc = main(["--json-errors", "simulate", src_file,
                   "--args", "16", "2.0", "--fault-plan", planp])
        assert rc == 4
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["error"] == "DeadlockError"
        assert doc["exit_code"] == 4
        assert doc["diagnostics"]


class TestFuzzCommand:
    def test_fuzz_clean_run(self, capsys):
        assert main(["fuzz", "--workloads", "fib", "--plans", "2",
                     "--seed", "4", "--passes", ""]) == 0
        out = capsys.readouterr().out
        assert "all conformant" in out
        assert "fib-base-fault-" in out

    def test_fuzz_report_json(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["fuzz", "--workloads", "fib", "--plans", "1",
                     "--seed", "4", "--passes", "", "--quiet",
                     "--json", out]) == 0
        capsys.readouterr()
        doc = json.load(open(out))
        assert doc["schema"] == "repro.fuzzreport/v1"
        assert doc["ok"] is True and doc["total"] == 1

    def test_fuzz_unknown_pass_fails_fast(self, capsys):
        assert main(["fuzz", "--workloads", "fib",
                     "--passes", "warp"]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_fuzz_kernel_compared_with_itself_is_a_usage_error(
            self, capsys):
        # Comparing a kernel with itself would pass without checking
        # anything, so it is refused before any case runs.
        assert main(["fuzz", "--workloads", "fib", "--plans", "1",
                     "--passes", "", "--kernel", "compiled",
                     "--compare-kernel", "compiled"]) == 2
        assert "compare kernel 'compiled'" in capsys.readouterr().err

    def test_fuzz_unknown_workload(self, capsys):
        assert main(["fuzz", "--workloads", "nope", "--plans", "1",
                     "--passes", ""]) == 5
        assert "unknown workload" in capsys.readouterr().err


class TestMaxCyclesDefault:
    # fuzz once set its shorter budget with set_defaults() on the
    # --max-cycles action every command shares, which made it every
    # command's default.
    @pytest.mark.parametrize("argv, expected", [
        (["simulate", "k.mc"], SimParams.max_cycles),
        (["explore", "saxpy"], SimParams.max_cycles),
        (["client", "evaluate", "fib"], SimParams.max_cycles),
        (["client", "explore", "fib"], SimParams.max_cycles),
        (["fuzz"], 2_000_000),
    ], ids=["simulate", "explore", "client-evaluate", "client-explore",
            "fuzz"])
    def test_parsed_default(self, argv, expected):
        assert build_parser().parse_args(argv).max_cycles == expected


class TestExploreCommand:
    ARGS = ["explore", "saxpy", "--grid", "banks=1,2",
            "--pipeline", "localize,banking={banks}",
            "--workers", "1", "--quiet", "--no-journal"]

    def test_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        jsonp = str(tmp_path / "explore.json")
        mdp = str(tmp_path / "explore.md")
        assert main(self.ARGS + ["--cache-dir", cache,
                                 "--json", jsonp, "--md", mdp]) == 0
        capsys.readouterr()
        cold = json.load(open(jsonp))
        assert cold["schema"] == "repro.explore/v2"
        assert cold["counts"] == {"points": 2, "ok": 2, "failed": 0,
                                  "fresh": 2, "cache_hits": 0,
                                  "resumed": 0, "quarantined": 0}
        md = open(mdp).read()
        assert "## Pareto frontier" in md

        # Warm run: every point served from the request index, with
        # bit-identical point documents apart from provenance.
        assert main(self.ARGS + ["--cache-dir", cache,
                                 "--json", jsonp]) == 0
        capsys.readouterr()
        warm = json.load(open(jsonp))
        assert warm["counts"]["cache_hits"] == 2
        assert warm["counts"]["fresh"] == 0
        provenance = ("source", "key", "fingerprint", "wall_s",
                      "attempts")
        for a, b in zip(cold["points"], warm["points"]):
            assert b["source"] == "cache-index"
            assert "cycles" in b and "stats" not in b
            assert {k: v for k, v in b.items() if k not in provenance} \
                == {k: v for k, v in a.items() if k not in provenance}

    def test_summary_output(self, tmp_path, capsys):
        assert main(self.ARGS + ["--cache-dir",
                                 str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "saxpy: 2 points (2 ok" in out
        assert "Pareto frontier" in out

    def test_bad_axis(self, capsys):
        assert main(["explore", "saxpy", "--grid", "banks"]) == 2
        assert "bad axis" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        assert main(["explore", "nope", "--grid", "banks=1"]) == 5

    def test_all_points_failing_exit_code(self, tmp_path, capsys):
        rc = main(["explore", "saxpy", "--grid", "banks=1",
                   "--pipeline", "warp_drive", "--workers", "1",
                   "--cache-dir", str(tmp_path / "c"), "--quiet",
                   "--no-journal"])
        assert rc == 2  # usage-error family from the failing point
        assert "unknown pass" in capsys.readouterr().err

    def test_resume_without_workload(self, tmp_path, capsys):
        sweeps = str(tmp_path / "sweeps")
        assert main(["explore", "saxpy", "--grid", "banks=1,2",
                     "--pipeline", "localize,banking={banks}",
                     "--workers", "1", "--quiet", "--no-cache",
                     "--sweeps-dir", sweeps]) == 0
        capsys.readouterr()
        # No workload, no grid: the journal's plan carries everything.
        assert main(["explore", "--resume", "last", "--sweeps-dir",
                     sweeps, "--no-cache", "--quiet",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out

    def test_explore_needs_workload_or_resume(self, capsys):
        assert main(["explore", "--grid", "banks=1"]) == 2
        assert "WORKLOAD" in capsys.readouterr().err


class TestSweepsCommand:
    def _sweep(self, tmp_path):
        sweeps = str(tmp_path / "sweeps")
        assert main(["explore", "saxpy", "--grid", "banks=1",
                     "--pipeline", "localize,banking={banks}",
                     "--workers", "1", "--quiet", "--no-cache",
                     "--sweeps-dir", sweeps]) == 0
        return sweeps

    def test_list_and_show(self, tmp_path, capsys):
        sweeps = self._sweep(tmp_path)
        capsys.readouterr()
        assert main(["sweeps", "list", "--dir", sweeps]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "1/1 done" in out
        assert main(["sweeps", "show", "last", "--dir", sweeps]) == 0
        out = capsys.readouterr().out
        assert "workload: saxpy" in out
        assert "[0] banks=1: done" in out

    def test_list_json(self, tmp_path, capsys):
        sweeps = self._sweep(tmp_path)
        capsys.readouterr()
        assert main(["sweeps", "list", "--dir", sweeps,
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["status"] == "complete"
        assert rows[0]["planned"] == 1

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["sweeps", "list", "--dir",
                     str(tmp_path / "nope")]) == 0
        assert "no sweep journals" in capsys.readouterr().out

    def test_unknown_ref(self, tmp_path, capsys):
        sweeps = self._sweep(tmp_path)
        capsys.readouterr()
        assert main(["sweeps", "show", "zzz", "--dir", sweeps]) == 2
