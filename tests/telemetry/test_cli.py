"""End-to-end CLI telemetry tests: the run ledger, ``repro runs``,
the unified Perfetto trace, ``report --batch`` and ``bench --check``."""

import json

import pytest

from repro.cli import main
from repro.telemetry import RunLedger

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "saxpy.mc"
    path.write_text(SRC)
    return str(path)


def tele(tmp_path, *argv, trace=None):
    """argv for one telemetry-enabled invocation rooted in tmp_path."""
    out = ["--telemetry", "--telemetry-dir", str(tmp_path)]
    if trace:
        out += ["--telemetry-trace", str(trace)]
    return out + list(argv)


class TestLedgerViaCli:
    def test_simulate_appends_one_record(self, tmp_path, src_file,
                                         capsys):
        assert main(tele(tmp_path, "simulate", src_file,
                         "--passes", "localize,banking=2",
                         "--args", "16", "2.0")) == 0
        records, skipped = RunLedger(str(tmp_path)).records()
        assert skipped == 0 and len(records) == 1
        rec = records[0]
        assert rec["command"] == "simulate"
        assert rec["status"] == "ok" and rec["exit_code"] == 0
        assert rec["argv"][0] == "--telemetry"
        # simulate drives the Pipeline facade now: the stage table
        # holds the pipeline.* top-level spans, sim.run nests inside.
        assert "pipeline.simulate" in rec["stages"]
        assert any(sp["name"] == "sim.run" for sp in rec["spans"])
        assert [p["pass"] for p in rec["passes"]] == \
            ["memory_localization", "scratchpad_banking"]
        assert all(p["wall_ms"] >= 0 for p in rec["passes"])
        assert len(rec["fingerprints"]) == 1
        err = capsys.readouterr().err
        assert "telemetry: recorded run" in err

    def test_failed_command_records_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mc"
        bad.write_text("int main() { return 0; }")   # C, not MiniC
        code = main(tele(tmp_path, "simulate", str(bad)))
        assert code != 0
        (rec,), _ = RunLedger(str(tmp_path)).records()
        assert rec["status"] == "error"
        assert rec["exit_code"] == code
        assert rec["error"] and rec["error"].get("message")

    def test_env_var_enables_without_flag(self, tmp_path, src_file,
                                          monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", src_file, "--args", "4", "1.0"]) == 0
        records, _ = RunLedger(".repro").records()
        assert len(records) == 1

    def test_runs_command_is_not_recorded(self, tmp_path, src_file,
                                          capsys):
        main(tele(tmp_path, "simulate", src_file, "--args", "4", "1.0"))
        main(tele(tmp_path, "runs", "list"))
        records, _ = RunLedger(str(tmp_path)).records()
        assert [r["command"] for r in records] == ["simulate"]


class TestRunsCommand:
    def _seed(self, tmp_path, src_file, n=2):
        for i in range(n):
            assert main(tele(tmp_path, "simulate", src_file,
                             "--passes", "localize",
                             "--args", str(4 * (i + 1)), "1.0")) == 0

    def test_list(self, tmp_path, src_file, capsys):
        self._seed(tmp_path, src_file)
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2
        assert "simulate" in out and "-1" in out and "-2" in out

    def test_show_replays_stages_and_metrics(self, tmp_path, src_file,
                                             capsys):
        self._seed(tmp_path, src_file, n=1)
        capsys.readouterr()
        assert main(["runs", "show", "last",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.simulate" in out     # stage timing replayed
        assert "memory_localization" in out   # per-pass timing

    def test_show_json(self, tmp_path, src_file, capsys):
        self._seed(tmp_path, src_file, n=1)
        capsys.readouterr()
        assert main(["runs", "show", "last", "--json",
                     "--dir", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.run/v1"

    def test_diff(self, tmp_path, src_file, capsys):
        self._seed(tmp_path, src_file)
        capsys.readouterr()
        assert main(["runs", "diff", "-2", "-1",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.simulate" in out

    def test_bad_ref_is_repro_error(self, tmp_path, src_file, capsys):
        self._seed(tmp_path, src_file, n=1)
        assert main(["runs", "show", "zzz",
                     "--dir", str(tmp_path)]) != 0
        assert "no run matching" in capsys.readouterr().err


class TestUnifiedTrace:
    def test_pipeline_and_sim_share_one_timeline(self, tmp_path,
                                                 src_file, capsys):
        """Acceptance: with telemetry enabled, a single exported
        Perfetto trace carries Pipeline spans AND cycle-level sim
        events."""
        trace = tmp_path / "trace.json"
        assert main(tele(tmp_path, "simulate", src_file,
                         "--passes", "localize",
                         "--args", "16", "2.0",
                         "--obs-level", "trace", trace=trace)) == 0
        doc = json.loads(trace.read_text())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert "pipeline" in pids
        assert any(p.startswith("sim:") for p in pids)
        spans = [ev for ev in doc["traceEvents"]
                 if ev["pid"] == "pipeline"]
        sim_events = [ev for ev in doc["traceEvents"]
                      if ev["pid"].startswith("sim:")]
        run = next(ev for ev in spans if ev["name"] == "sim.run")
        lo, hi = run["ts"], run["ts"] + run["dur"]
        assert all(lo - 1e-3 <= ev["ts"] <= hi + 1e-3
                   for ev in sim_events), \
            "sim cycle events must land inside their sim.run span"


class TestReportBatch:
    def test_report_carries_batch_section(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "saxpy", "--passes", "localize",
                     "--batch", "2", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        batch = doc["layers"]["sim"]["batch"]
        assert batch["lanes"] == 2
        assert len(batch["lane_cycles"]) == 2
        assert batch["failed_lanes"] == []

    def test_markdown_mentions_batch(self, tmp_path, capsys):
        assert main(["report", "saxpy", "--batch", "2"]) == 0
        assert "Batched simulation" in capsys.readouterr().out


class TestBenchCheck:
    def _baseline(self, tmp_path, cycles=3080):
        doc = {
            "schema": "repro.bench_sim_throughput/v2",
            "config": "allopts",
            "kernels": ["dense", "compiled"],
            "rows": [{"workload": "saxpy", "cycles": cycles,
                      "compiled_over_dense": 1.5}],
            "geomean": {"compiled_over_dense": 1.5},
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_check_passes_with_loose_threshold(self, tmp_path, capsys):
        code = main(["bench", "--check",
                     "--baseline", self._baseline(tmp_path),
                     "--threshold", "0.99", "--repeat", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK" in out and "saxpy: 3080 cycles" in out

    def test_cycle_drift_fails_hard(self, tmp_path, capsys):
        code = main(["bench", "--check",
                     "--baseline", self._baseline(tmp_path, cycles=1),
                     "--threshold", "0.99", "--repeat", "1"])
        assert code == 1
        assert "determinism break" in capsys.readouterr().out

    def test_missing_baseline_is_config_error(self, tmp_path, capsys):
        code = main(["bench", "--check",
                     "--baseline", str(tmp_path / "nope.json")])
        assert code != 0
        assert "baseline" in capsys.readouterr().err

    def test_check_json_dump(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert main(["bench", "--check",
                     "--baseline", self._baseline(tmp_path),
                     "--threshold", "0.99", "--repeat", "1",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench-check/v1"
        assert doc["ok"] is True
