"""End-to-end tests for the exploration engine (repro.dse.engine)."""

import pytest

from repro.api import EvaluationRequest, execute
from repro.dse import (
    EXPLORE_SCHEMA,
    ExploreReport,
    GridSpace,
    PointResult,
    explore,
    pareto_frontier,
)
from repro.errors import ReproError
from repro.report import render_explore_markdown

TEMPLATE = "localize,banking={banks}"

#: Point-document fields that say how an outcome was obtained, not
#: what it is.
PROVENANCE = ("source", "key", "fingerprint", "wall_s", "attempts")


def outcome(point):
    """A point's document without its provenance fields."""
    doc = point.to_json()
    for name in PROVENANCE:
        del doc[name]
    return doc


def _point(index, cycles, alms, ok=True):
    p = PointResult(index=index, params={"i": index}, pass_spec="")
    if ok:
        p.status = "ok"
        p.cycles = cycles
        p.synth = {"fpga_mhz": 1.0, "alms": alms, "regs": 0, "dsps": 0,
                   "fpga_mw": 0.0, "asic_area_kum2": 0.0, "asic_mw": 0.0}
    return p


class TestParetoFrontier:
    def test_dominated_points_excluded(self):
        points = [_point(0, 100, 10),   # pareto (best area)
                  _point(1, 50, 20),    # pareto (best latency)
                  _point(2, 100, 20),   # dominated by both
                  _point(3, 60, 15)]    # pareto (trade-off)
        front = pareto_frontier(points, ("time_us", "alms"))
        assert front == [1, 3, 0]  # sorted by first objective

    def test_failed_points_ignored(self):
        points = [_point(0, 1, 1, ok=False), _point(1, 100, 100)]
        assert pareto_frontier(points, ("time_us", "alms")) == [1]

    def test_ties_all_kept(self):
        points = [_point(0, 50, 10), _point(1, 50, 10)]
        assert pareto_frontier(points, ("time_us", "alms")) == [0, 1]

    def test_single_objective(self):
        points = [_point(0, 100, 1), _point(1, 50, 99)]
        assert pareto_frontier(points, ("cycles",)) == [1]

    def test_unknown_metric(self):
        with pytest.raises(ReproError, match="unknown objective"):
            _point(0, 1, 1).metric("warp")


class TestExploreSerial:
    def test_sweep(self):
        report = explore("saxpy", GridSpace({"banks": [1, 2]}),
                         pipeline=TEMPLATE, workers=1, cache=None)
        assert isinstance(report, ExploreReport)
        c = report.counts
        assert c == {"points": 2, "ok": 2, "failed": 0, "fresh": 2,
                     "cache_hits": 0, "resumed": 0, "quarantined": 0}
        for p in report.points:
            assert p.verified is True
            assert p.source == "fresh"
            assert p.fingerprint
            assert p.pass_spec.startswith("memory_localization")
        assert report.pareto  # at least one non-dominated point
        doc = report.to_json()
        assert doc["schema"] == EXPLORE_SCHEMA
        assert doc["counts"]["ok"] == 2
        assert "saxpy" in report.summary()

    def test_progress_callback(self):
        seen = []
        explore("saxpy", GridSpace({"banks": [1]}), pipeline=TEMPLATE,
                workers=1, cache=None, progress=seen.append)
        assert [p.index for p in seen] == [0]

    SPACE = GridSpace({"banks": [1, 2],
                       "sim.loop_invocation_window": [1, 2]})

    def test_default_kernel_reuses_the_sweep_fingerprint(
            self, hashed_circuits, compiles):
        # A sweep naming no kernel runs the compiled default, which
        # builds a plan at every simulated point; the only hash is the
        # sweep's own, one per pass spec, and simulate() adds none.
        report = explore("saxpy", self.SPACE, pipeline=TEMPLATE,
                         workers=1, cache=None)
        assert report.counts["ok"] == 4
        assert compiles == ["saxpy"] * 4
        assert hashed_circuits == ["saxpy", "saxpy"]

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Names of circuits the compiled kernel built a plan for."""
        import repro.sim.compile as compile_mod
        names = []
        build = compile_mod.compile_circuit

        def counting(circuit):
            names.append(circuit.name)
            return build(circuit)

        monkeypatch.setattr(compile_mod, "compile_circuit", counting)
        return names

    def test_repeat_sweep_compiles_the_same_circuits(self, compiles):
        # Nothing compiled is kept between runs, so a sweep does the
        # same compile work whatever ran before it.
        explore("saxpy", self.SPACE, pipeline=TEMPLATE, workers=1,
                cache=None)
        first = list(compiles)
        del compiles[:]
        explore("saxpy", self.SPACE, pipeline=TEMPLATE, workers=1,
                cache=None)
        assert len(first) == 4          # one per simulated point
        assert compiles == first

    def test_equal_circuits_in_one_sweep_compile_once(self, tmp_path,
                                                       compiles):
        # Two pass specs, one circuit: the second group is
        # answered by the result cache before it compiles anything.
        report = explore("saxpy",
                         GridSpace({"spec": ["localize",
                                             "localize,banking=1"]}),
                         pipeline="{spec}", workers=1,
                         cache=str(tmp_path / "cache"))
        assert [p.cached for p in report.points] == [False, True]
        assert len(compiles) == 1

    def test_validation_errors(self):
        space = GridSpace({"banks": [1]})
        with pytest.raises(ReproError, match="unknown objective"):
            explore("saxpy", space, pipeline=TEMPLATE,
                    objectives=("warp",))
        with pytest.raises(ReproError, match="variant"):
            explore("saxpy", space, pipeline=TEMPLATE, variant="nope")
        with pytest.raises(ReproError, match="empty"):
            explore("saxpy", [], pipeline=TEMPLATE)


class TestOneEvaluator:
    def test_sweep_point_equals_execute(self):
        # A sweep point is the evaluation `repro simulate`, execute()
        # and the daemon report for the same request: same circuit, as
        # built, same cycles.  (Sweeps once simulated a canonical
        # rebuild instead, which gave this point 1138 cycles.)
        report = explore(
            "covar", [{"banks": 2, "tiles": 1,
                       "sim.loop_invocation_window": 2}],
            pipeline="localize,banking={banks},fusion,tuning,"
                     "pipelining?tiles>1,tiling={tiles}?tiles>1",
            workers=1, cache=None)
        (point,) = report.points
        response = execute(EvaluationRequest(
            workload="covar", passes=point.pass_spec,
            sim={"loop_invocation_window": 2}))
        ev = response.evaluation
        assert (point.cycles, point.verified, point.synth) == \
            (ev["cycles"], ev["verified"], ev["synth"])
        assert point.cycles == 1137

    def test_points_keep_no_sim_stats(self):
        report = explore("saxpy", GridSpace({"banks": [1]}),
                         pipeline=TEMPLATE, workers=1, cache=None)
        (point,) = report.points
        assert not hasattr(point, "stats")
        assert "stats" not in point.to_json()


class TestExploreCache:
    def test_warm_run_bit_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        space = GridSpace({"banks": [1, 2]})
        cold = explore("saxpy", space, pipeline=TEMPLATE,
                       workers=1, cache=cache)
        warm = explore("saxpy", space, pipeline=TEMPLATE,
                       workers=1, cache=cache)
        assert cold.counts["fresh"] == 2
        assert warm.counts["cache_hits"] == 2
        for a, b in zip(cold.points, warm.points):
            # The warm run never ran the front-end: the request index
            # mapped straight to the stored object.
            assert b.source == "cache-index"
            assert outcome(b) == outcome(a)
            assert (b.key, b.fingerprint) == (a.key, a.fingerprint)

    def test_content_level_hit_across_specs(self, tmp_path):
        """Different requests producing the same hardware share one
        object via the content key (parameter_tuning is idempotent, so
        running it twice yields a fingerprint-identical circuit)."""
        cache = str(tmp_path / "cache")
        space = GridSpace({"banks": [1]})
        first = explore("saxpy", space, pipeline="localize,tuning",
                        workers=1, cache=cache)
        second = explore("saxpy", space,
                         pipeline="localize,tuning,tuning",
                         workers=1, cache=cache)
        (a,), (b,) = first.points, second.points
        assert a.source == "fresh"
        assert b.source == "cache"  # hit in the worker, by content
        assert b.fingerprint == a.fingerprint
        assert (b.cycles, b.verified, b.synth) == \
            (a.cycles, a.verified, a.synth)

    def test_no_cache_is_always_fresh(self):
        space = GridSpace({"banks": [1]})
        for _ in range(2):
            report = explore("saxpy", space, pipeline=TEMPLATE,
                             workers=1, cache=None)
            assert report.counts["cache_hits"] == 0


class TestExploreParallel:
    def test_matches_serial(self, tmp_path):
        space = GridSpace({"banks": [1, 2]})
        serial = explore("saxpy", space, pipeline=TEMPLATE,
                         workers=1, cache=None)
        parallel = explore("saxpy", space, pipeline=TEMPLATE,
                           workers=2, cache=None)
        for a, b in zip(serial.points, parallel.points):
            assert outcome(b) == outcome(a)
            assert b.fingerprint == a.fingerprint

    def test_parallel_workers_share_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        space = GridSpace({"banks": [1, 2]})
        explore("saxpy", space, pipeline=TEMPLATE, workers=2,
                cache=cache)
        warm = explore("saxpy", space, pipeline=TEMPLATE, workers=2,
                       cache=cache)
        assert warm.counts["cache_hits"] == 2


class TestFailureTolerance:
    def test_bad_spec_fails_point_not_sweep(self):
        def pipeline(params):
            return "warp_drive" if params["banks"] == 2 else TEMPLATE
        report = explore("saxpy", GridSpace({"banks": [1, 2]}),
                         pipeline=lambda p: pipeline(p).format(**p),
                         workers=1, cache=None)
        ok = [p for p in report.points if p.ok]
        failed = [p for p in report.points if not p.ok]
        assert len(ok) == len(failed) == 1
        assert failed[0].error["error"] == "ReproError"
        assert failed[0].error["exit_code"] == 2
        assert "unknown pass" in failed[0].error["message"]
        assert report.pareto == [ok[0].index]

    def test_sim_timeout_fails_point_with_family_code(self):
        space = [{"banks": 1, "sim.max_cycles": 50},
                 {"banks": 1}]
        report = explore("saxpy", space, pipeline=TEMPLATE,
                         workers=1, cache=None)
        timed_out, ok = report.points
        assert not timed_out.ok
        assert timed_out.error["error"] == "SimulationTimeout"
        assert timed_out.error["exit_code"] == 6  # sim family
        assert ok.ok and ok.verified

    def test_unknown_sim_axis_fails_point(self):
        report = explore("saxpy", [{"banks": 1, "sim.warp": 9}],
                         pipeline=TEMPLATE, workers=1, cache=None)
        (p,) = report.points
        assert not p.ok
        assert "unknown sim.* axis" in p.error["message"]

    def test_failed_points_render_in_markdown(self):
        report = explore("saxpy", [{"banks": 1, "sim.max_cycles": 50}],
                         pipeline=TEMPLATE, workers=1, cache=None)
        md = render_explore_markdown(report.to_json())
        assert "## Failed points" in md
        assert "SimulationTimeout" in md


class TestMarkdownReport:
    def test_renders_points_and_pareto(self):
        report = explore("saxpy", GridSpace({"banks": [1, 2]}),
                         pipeline=TEMPLATE, workers=1, cache=None)
        md = render_explore_markdown(report.to_json())
        assert "# Design-space exploration: saxpy" in md
        assert "## Evaluated points" in md
        assert "## Pareto frontier" in md
        assert "| banks |" in md
