"""Kernel differential conformance: compiled vs dense, bit for bit.

The compiled kernel claims *bit identity* with the dense kernel —
same cycle count, same results, same memory image — fault-free and
under any fault plan.  That claim is checked here through the
ConformanceFuzzer's "kernel" mode, which is stricter than the LI
invariant (cycles must match too, since the kernels execute the same
schedule).  The compiled kernel holds all the wake plumbing (the
scheduler, the instance sweep and its commit) and the dense sweep
none of it, so the two are independent implementations of every
cycle.

The default run covers a fast representative subset (dataflow loop /
recursion / tensor / parallel_for) under 3 seeded plans each; set
RUN_FULL_MATRIX=1 to sweep every workload.
"""

import os

import pytest

from repro.sim.faults import FaultPlan
from repro.util.rng import derive_seed
from repro.verify import DEFAULT_FUZZ_PASSES, ConformanceFuzzer
from repro.workloads import workload_names

N_PLANS = 3
FAST_SUBSET = ["saxpy", "fib", "relu_t", "stencil"]
FULL_MATRIX = workload_names()
full_matrix = pytest.mark.skipif(
    not os.environ.get("RUN_FULL_MATRIX"),
    reason="set RUN_FULL_MATRIX=1 to run the full workload matrix")

#: Seeds derived exactly as ``repro fuzz --seed 20260807`` derives
#: them, so a failure here replays from the CLI.
PLANS = [FaultPlan.generate(derive_seed(20260807, "plan", i))
         for i in range(N_PLANS)]


@pytest.fixture(scope="module")
def fuzzer():
    """Shared across cases: circuits and fault-free compiled baselines
    are built once per (workload, spec); every case also runs on
    dense."""
    return ConformanceFuzzer(pass_spec=DEFAULT_FUZZ_PASSES,
                             kernel="compiled", compare_kernel="dense")


@pytest.mark.parametrize("workload", FAST_SUBSET)
def test_kernel_identity_fault_free(fuzzer, workload):
    case = fuzzer.run_case(workload, None, mode="kernel")
    assert case.ok, f"{case.case_id}: {case.message}"
    assert case.cycles_ref == case.cycles_run > 0


@pytest.mark.parametrize("workload", FAST_SUBSET)
def test_kernel_identity_under_faults(fuzzer, workload):
    for plan in PLANS:
        case = fuzzer.run_case(workload, plan, mode="kernel")
        assert case.ok, f"{case.case_id}: {case.message}"
        assert case.cycles_ref == case.cycles_run


def test_fuzz_loop_emits_kernel_cases(fuzzer):
    report = fuzzer.fuzz(workloads=["fib"], n_plans=2, seed=99)
    modes = [c.mode for c in report.cases]
    # 1 fault-free kernel case + per-plan fault and kernel cases.
    assert modes.count("kernel") == 3
    assert modes.count("fault") == 2
    assert report.ok, [c.message for c in report.failures()]
    nofault = [c for c in report.cases
               if c.mode == "kernel" and c.plan is None]
    assert len(nofault) == 1
    assert nofault[0].case_id.endswith("nofault")
    doc = report.to_json()
    assert doc["total"] == 5 and doc["failed"] == 0


@pytest.mark.slow
@full_matrix
@pytest.mark.parametrize("workload", FULL_MATRIX)
def test_kernel_identity_full_matrix(fuzzer, workload):
    case = fuzzer.run_case(workload, None, mode="kernel")
    assert case.ok, f"{case.case_id}: {case.message}"
    for plan in PLANS:
        case = fuzzer.run_case(workload, plan, mode="kernel")
        assert case.ok, f"{case.case_id}: {case.message}"
