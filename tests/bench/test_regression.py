"""Unit tests for the bench regression gate (repro.bench.regression)."""

import json

import pytest

from repro.bench.regression import (
    CHECK_SCHEMA,
    DEFAULT_BASELINE,
    check_throughput,
)
from repro.errors import ReproError


def _baseline(tmp_path, **over):
    doc = {
        "schema": "repro.bench_sim_throughput/v2",
        "config": "allopts",
        "kernels": ["dense", "compiled"],
        "rows": [{"workload": "saxpy", "cycles": 3080,
                  "compiled_over_dense": 1.5},
                 {"workload": "stencil", "cycles": 261,
                  "compiled_over_dense": 1.4}],
        "geomean": {"compiled_over_dense": 1.45},
    }
    doc.update(over)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckThroughput:
    def test_doc_shape_and_subset_geomean(self, tmp_path):
        doc = check_throughput(_baseline(tmp_path),
                               workloads=["saxpy"], repeat=1,
                               threshold=0.99)
        assert doc["schema"] == CHECK_SCHEMA
        assert doc["ok"], doc["failures"]
        (row,) = doc["rows"]
        assert row["workload"] == "saxpy" and row["cycles"] == 3080
        # the committed geomean is computed over the *selected* rows
        # (saxpy's own 1.5), not the whole suite's 1.45
        assert doc["committed_geomean"]["compiled_over_dense"] == 1.5

    def test_unknown_workload_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not in the committed"):
            check_throughput(_baseline(tmp_path), workloads=["nope"])

    def test_wrong_schema_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not a "):
            check_throughput(_baseline(tmp_path, schema="x/v1"))

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            check_throughput(str(tmp_path / "gone.json"))

    def test_committed_baseline_exists_in_repo(self):
        with open(DEFAULT_BASELINE) as fh:
            doc = json.load(fh)
        assert doc["schema"].startswith("repro.bench_sim_throughput/")
        assert {"geomean", "rows"} <= set(doc)
