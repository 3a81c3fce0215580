"""Tests for the experiment harness and reporting."""

import os

import pytest

from repro.bench import (
    all_opts_for,
    banking_stack,
    format_table,
    fusion_stack,
    localization_stack,
    normalize,
    tiling_stack,
)
from repro.bench.configs import CILK_SET
from repro.bench.reporting import emit, results_dir
from repro.errors import ReproError, WorkloadError


class TestEvaluate:
    """The evaluation surface the paper-figure benchmarks use."""

    def test_baseline_run(self):
        from repro.api import evaluate
        ev = evaluate("spmv")
        assert ev.workload == "spmv"
        assert ev.cycles > 0
        assert 200 < ev.synth.fpga_mhz <= 500
        assert ev.time_us == pytest.approx(ev.cycles
                                           / ev.synth.fpga_mhz)

    def test_accepts_workload_object(self):
        from repro.api import Pipeline
        from repro.workloads import get_workload
        pipe = Pipeline(get_workload("spmv"))
        ev = pipe.optimize(None).simulate().synthesize()
        assert ev.workload == "spmv"

    def test_pass_log_captured(self):
        from repro.api import Pipeline
        pipe = Pipeline("spmv")
        pipe.optimize(fusion_stack())
        pipe.simulate()
        ev = pipe.synthesize()
        assert ev.pass_log and ev.pass_log[0].pass_name == "op_fusion"

    def test_unknown_workload(self):
        from repro.api import evaluate
        with pytest.raises((WorkloadError, ReproError)):
            evaluate("nope")

    def test_verification_always_on(self):
        # The pipeline verifies against the interpreter; a pass stack
        # that changed behavior would raise.  (Exercise a deep stack.)
        from repro.api import Pipeline
        pipe = Pipeline("spmv")
        pipe.optimize(all_opts_for("spmv"))
        ev = pipe.simulate().synthesize()
        assert ev.cycles > 0

    def test_tensor_variant(self):
        from repro.api import evaluate
        ev = evaluate("relu_t", variant="tensor")
        assert ev.variant == "tensor"


class TestConfigs:
    def test_stacks_are_fresh_instances(self):
        a, b = fusion_stack(), fusion_stack()
        assert a[0] is not b[0]

    def test_cilk_set_members_exist(self):
        from repro.workloads import WORKLOADS
        assert set(CILK_SET) <= set(WORKLOADS)

    def test_all_opts_grouping(self):
        cilk = [type(p).__name__ for p in all_opts_for("saxpy")]
        loops = [type(p).__name__ for p in all_opts_for("gemm")]
        assert "ExecutionTiling" in cilk
        assert "ExecutionTiling" not in loops
        assert "MemoryLocalization" in loops

    def test_tensor_workload_gets_tensor_pass(self):
        names = [type(p).__name__ for p in all_opts_for("relu_t")]
        assert names[0] == "TensorOps"

    def test_stack_builders(self):
        assert tiling_stack(4)
        assert localization_stack()
        assert banking_stack(2)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_format_floats(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.23" in text

    def test_normalize(self):
        out = normalize({"a": 10.0, "b": 5.0}, "a")
        assert out == {"a": 1.0, "b": 0.5}

    def test_emit_writes_file(self, capsys):
        emit("selftest_experiment", "hello world")
        out = capsys.readouterr().out
        assert "selftest_experiment" in out
        path = os.path.join(results_dir(), "selftest_experiment.txt")
        assert open(path).read().strip() == "hello world"
        os.remove(path)
