"""`repro report`: cross-layer join, verdicts, and the pinned schema.

The report document is the contract between the toolchain and any
downstream tooling (CI artifact diffing, notebooks), so its shape is
pinned here: all three layers (sim / opt / synth) must be present,
every task block gets a bound-by verdict from the fixed vocabulary,
and the top-stalled-sources table speaks in MiniC source labels.
"""

import json

import pytest

from repro.api import Pipeline
from repro.cli import main
from repro.opt import PASS_REGISTRY
from repro.report import (
    BOUND_BY_GROUPS,
    REPORT_SCHEMA,
    build_report,
    render_markdown,
)

REPORT_PASSES = ["memory_localization", "scratchpad_banking",
                 "perf_counters"]


@pytest.fixture(scope="module")
def gemm_report():
    passes = [PASS_REGISTRY[name]() for name in REPORT_PASSES]
    pipe = Pipeline("gemm", name="gemm_report-test")
    pipe.optimize(passes)
    pipe.simulate()
    pipe.synthesize(name="gemm")
    return build_report(pipe, "report-test"), pipe


class TestReportSchema:
    def test_header(self, gemm_report):
        report, _pipe = gemm_report
        assert report["schema"] == REPORT_SCHEMA
        assert report["workload"] == "gemm"
        assert report["config"] == "report-test"

    def test_all_three_layers_present(self, gemm_report):
        report, _pipe = gemm_report
        assert set(report["layers"]) == {"sim", "opt", "synth"}

    def test_sim_layer(self, gemm_report):
        report, pipe = gemm_report
        sim = report["layers"]["sim"]
        assert sim["cycles"] == pipe.cycles
        assert sim["total_stall_cycles"] > 0
        assert sim["top_sources"], "needs a top-sources table"
        for entry in sim["top_sources"]:
            assert set(entry) == {"loc", "cause", "cycles"}
            assert "gemm.mc" in entry["loc"]
        cycles = [e["cycles"] for e in sim["top_sources"]]
        assert cycles == sorted(cycles, reverse=True)
        assert sim["counters"], "perf_counters bank readouts missing"
        assert "gemm_report-test_pmu" not in sim["counters"]  # per task
        assert any(bank.endswith("_pmu") for bank in sim["counters"])

    def test_opt_layer(self, gemm_report):
        report, _pipe = gemm_report
        passes = report["layers"]["opt"]["passes"]
        assert [p["name"] for p in passes] == REPORT_PASSES
        for p in passes:
            for key in ("changed", "nodes_added", "edges_added",
                        "wall_ms", "details"):
                assert key in p

    def test_synth_layer(self, gemm_report):
        report, _pipe = gemm_report
        synth = report["layers"]["synth"]
        row = synth["table2_row"]
        assert set(row) == {"bench", "MHz", "mW", "ALMs", "Reg",
                            "DSP", "kum2", "asic_mW", "GHz"}
        pmu = synth["pmu_overhead"]
        assert pmu["counters"] > 0
        assert pmu["alms"] > 0
        assert pmu["area_kum2"] > 0

    def test_verdict_per_task_block(self, gemm_report):
        report, pipe = gemm_report
        assert set(report["verdicts"]) == set(pipe.circuit.tasks)
        for verdict in report["verdicts"].values():
            assert verdict["bound_by"] in BOUND_BY_GROUPS
            groups = verdict["stall_cycles_by_group"]
            assert set(groups) == set(BOUND_BY_GROUPS)
            assert verdict["stall_cycles_total"] == sum(groups.values())

    def test_json_serializable(self, gemm_report):
        report, _pipe = gemm_report
        assert json.loads(json.dumps(report)) == report


class TestMarkdown:
    def test_render_contains_all_sections(self, gemm_report):
        report, _pipe = gemm_report
        md = render_markdown(report)
        for heading in ("# Bottleneck report: gemm",
                        "## Bound-by verdicts",
                        "## Top stalled source lines",
                        "## Hardware performance counters",
                        "## Optimization passes",
                        "## Synthesis estimate"):
            assert heading in md
        assert "gemm.mc:" in md
        assert "PMU overhead" in md


class TestCli:
    def test_report_command_writes_all_outputs(self, tmp_path, capsys):
        jsonp = str(tmp_path / "report.json")
        mdp = str(tmp_path / "report.md")
        statsp = str(tmp_path / "stats.json")
        rc = main(["report", "gemm",
                   "--passes", ",".join(REPORT_PASSES),
                   "--json", jsonp, "--md", mdp,
                   "--stats-json", statsp])
        assert rc == 0
        report = json.load(open(jsonp))
        assert report["schema"] == REPORT_SCHEMA
        assert set(report["layers"]) == {"sim", "opt", "synth"}
        assert "## Bound-by verdicts" in open(mdp).read()
        stats = json.load(open(statsp))
        assert stats["schema"] == "repro.simstats/v3"

    def test_report_defaults_to_stdout_markdown(self, capsys):
        assert main(["report", "saxpy"]) == 0
        out = capsys.readouterr().out
        assert "# Bottleneck report: saxpy" in out
        assert "## Bound-by verdicts" in out

    def test_baseline_report_has_empty_pass_list(self, capsys):
        assert main(["report", "saxpy", "--json", "/dev/null"]) == 0
