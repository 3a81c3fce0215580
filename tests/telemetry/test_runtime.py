"""Tests for the process-global telemetry switch and the disabled
(zero-cost) path through instrumented production code."""

import pytest

from repro import Pipeline, telemetry
from repro.telemetry import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
)

SRC = """
array x: f32[16];
array y: f32[16];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
}
"""


class TestSwitch:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.tracer() is NULL_TRACER
        assert telemetry.metrics() is NULL_METRICS

    def test_enable_swaps_in_live_collectors(self):
        tr, met = telemetry.enable()
        assert telemetry.enabled()
        assert isinstance(tr, Tracer) and telemetry.tracer() is tr
        assert isinstance(met, MetricsRegistry)
        telemetry.disable()
        assert telemetry.tracer() is NULL_TRACER

    def test_reenable_fresh_false_keeps_collectors(self):
        tr, _ = telemetry.enable()
        tr2, _ = telemetry.enable(fresh=False)
        assert tr2 is tr
        tr3, _ = telemetry.enable()          # fresh=True replaces
        assert tr3 is not tr

    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        assert not telemetry.env_requests_telemetry()
        for off in ("0", "false", "off", ""):
            monkeypatch.setenv(telemetry.ENV_FLAG, off)
            assert not telemetry.env_requests_telemetry()
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        assert telemetry.env_requests_telemetry()


class TestDisabledIsInert:
    def test_pipeline_run_leaves_no_telemetry(self):
        """The acceptance-side of 'zero-cost when disabled': a full
        Pipeline run records no spans, samples, or fingerprints."""
        Pipeline(SRC).optimize("localize,banking=2") \
            .simulate(args=[16, 2.0])
        assert telemetry.tracer() is NULL_TRACER
        assert NULL_TRACER.finished() == []
        assert NULL_METRICS.snapshot()["metrics"] == []
        telemetry.annotate("workload", "saxpy")
        telemetry.note_fingerprint("deadbeef")
        tr, _met = telemetry.enable()
        # nothing leaked from the disabled period into a new session
        rec = telemetry.collect_record(
            command="t", argv=[], status="ok", exit_code=0,
            wall_s=0.0, started=0.0)
        assert rec["annotations"] == {} and rec["fingerprints"] == []

    def test_null_span_identity_under_load(self):
        spans = {telemetry.tracer().span(f"s{i}") for i in range(100)}
        assert spans == {NULL_SPAN}


class TestCollectRecord:
    def test_spans_passes_and_context_land_in_record(self):
        tr, met = telemetry.enable()
        with tr.span("pipeline.optimize"):
            with tr.span("opt.memory_localization", category="opt",
                         changed=True, dN=-2):
                pass
        met.counter("dse.cache.object_hits").inc(3)
        telemetry.annotate("workload", "saxpy")
        telemetry.note_fingerprint("cafe")
        telemetry.note_fingerprint("cafe")   # deduplicated
        rec = telemetry.collect_record(
            command="explore", argv=["explore", "saxpy"], status="ok",
            exit_code=0, wall_s=0.5, started=1754000000.0)
        assert rec["command"] == "explore" and rec["status"] == "ok"
        assert "pipeline.optimize" in rec["stages"]
        assert [p["pass"] for p in rec["passes"]] == \
            ["memory_localization"]
        assert rec["passes"][0]["changed"] is True
        assert rec["fingerprints"] == ["cafe"]
        assert rec["annotations"] == {"workload": "saxpy"}
        names = [m["name"] for m in rec["metrics"]["metrics"]]
        assert names == ["dse.cache.object_hits"]

    def test_failed_run_carries_error_document(self):
        telemetry.enable()
        rec = telemetry.collect_record(
            command="simulate", argv=["simulate", "x.mc"],
            status="error", exit_code=2, wall_s=0.1,
            started=1754000000.0,
            error={"kind": "MiniCParseError", "message": "bad"})
        assert rec["status"] == "error" and rec["exit_code"] == 2
        assert rec["error"]["kind"] == "MiniCParseError"


class TestInstrumentedSeams:
    def test_pipeline_spans_cover_stages(self):
        tr, met = telemetry.enable()
        pipe = Pipeline(SRC) \
            .optimize("localize,banking=2").simulate(args=[16, 2.0])
        pipe.synthesize()
        stages = tr.stage_durations()
        for want in ("pipeline.frontend", "pipeline.optimize",
                     "pipeline.simulate", "pipeline.verify",
                     "pipeline.synthesize"):
            assert want in stages, f"missing stage span {want}"
        opt = [sp for sp in tr.finished() if sp.category == "opt"]
        assert {sp.name for sp in opt} == \
            {"opt.memory_localization", "opt.scratchpad_banking"}
        assert all("." in sp.span_id for sp in opt)
        assert len(telemetry._STATE.fingerprints) == 1

    def test_traced_execute_hashes_the_circuit_once(self,
                                                    hashed_circuits):
        # sim.run notes the circuit's fingerprint; nothing else in the
        # evaluation hashes it.
        from repro.api import EvaluationRequest, execute
        telemetry.enable()
        response = execute(EvaluationRequest(
            source=SRC, args=(16, 2.0), passes="localize,banking=2"))
        assert response.ok
        assert len(hashed_circuits) == 1
        assert len(telemetry._STATE.fingerprints) == 1

    def test_sim_run_span_nested_under_simulate(self):
        tr, _ = telemetry.enable()
        Pipeline(SRC).simulate(args=[16, 2.0], check=False)
        by_name = {sp.name: sp for sp in tr.finished()}
        sim = by_name["sim.run"]
        stage = by_name["pipeline.simulate"]
        assert sim.parent_id == stage.span_id
        assert sim.attrs["cycles"] == stage.attrs["cycles"] > 0

    @pytest.mark.parametrize("batch", [3])
    def test_batch_counters(self, batch):
        _, met = telemetry.enable()
        from repro import SimParams
        pipe = Pipeline(SRC)
        pipe.evaluate_many([[16, float(i)] for i in range(batch)],
                           params=SimParams(batch=batch))
        runs = met.get("sim.batch.runs")
        assert runs is not None
        assert sum(s["value"] for s in runs.samples()) == 1
        lanes = met.get("sim.batch.lanes")
        assert sum(s["value"] for s in lanes.samples()) == batch
