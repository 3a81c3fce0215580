"""The failure path of the fuzz harness: forced faults must produce a
stall-attributed DeadlockError, a replayable repro bundle on disk, and
the documented exit code — and ``repro fuzz --seed S`` must be fully
reproducible."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import exit_code_for
from repro.sim import SimParams
from repro.sim.faults import FaultPlan
from repro.verify import (ConformanceFuzzer, load_bundle,
                          replay_bundle)
from repro.verify.artifacts import write_bundle

#: A plan whose only fault is a permanent credit withhold from cycle
#: 60 on: the canonical forced-deadlock fault.
FREEZE = FaultPlan(seed=99, freeze_at=60)

#: Freeze mixed with benign perturbations; minimization must strip
#: the benign ones and keep freeze.
NOISY_FREEZE = FaultPlan(seed=99, jitter_rate=0.5, jitter_max=2,
                         memory_latency_max=4, arbiter_shuffle=True,
                         freeze_at=60)


@pytest.fixture(scope="module")
def failing_case(tmp_path_factory):
    art = tmp_path_factory.mktemp("bundles")
    fz = ConformanceFuzzer(pass_spec="", artifacts_dir=str(art),
                           deadlock_window=500, max_cycles=100_000)
    return fz.run_case("saxpy", NOISY_FREEZE)


class TestForcedFault:
    def test_deadlock_error_and_exit_code(self, failing_case):
        assert not failing_case.ok
        assert failing_case.error == "DeadlockError"
        assert failing_case.exit_code == 4
        assert exit_code_for(failing_case.last_exc) == 4

    def test_minimized_to_freeze_alone(self, failing_case):
        assert failing_case.minimized == ["freeze"]

    def test_bundle_on_disk(self, failing_case):
        bundle = failing_case.bundle
        assert os.path.isdir(bundle)
        for name in ("manifest.json", "fault_plan.json",
                     "circuit.json", "error.json", "stats.json",
                     "original_plan.json", "REPRO.txt"):
            assert os.path.exists(os.path.join(bundle, name)), name

    def test_bundle_error_document(self, failing_case):
        with open(os.path.join(failing_case.bundle,
                               "error.json")) as fh:
            doc = json.load(fh)
        assert doc["error"] == "DeadlockError"
        assert doc["exit_code"] == 4
        # Stall-attributed diagnostics with blocked-node causes.
        diags = doc["diagnostics"]
        blocked = [n for entry in diags
                   for inst in entry["instances"]
                   for n in inst["blocked_nodes"]]
        assert blocked
        assert {n["cause"] for n in blocked} & \
            {"downstream_full", "upstream_empty"}

    def test_bundle_replays_to_same_failure(self, failing_case):
        manifest = load_bundle(failing_case.bundle)
        assert manifest["workload"] == "saxpy"
        assert manifest["plan"].freeze_at == 60
        assert manifest["plan"].active_categories() == ["freeze"]
        replayed = replay_bundle(failing_case.bundle,
                                 max_cycles=100_000)
        assert replayed.error == "DeadlockError"
        assert replayed.exit_code == 4

    def test_cli_replay_exit_code(self, failing_case, capsys):
        rc = main(["fuzz", "--replay", failing_case.bundle])
        assert rc == 4
        assert "DeadlockError" in capsys.readouterr().out


@pytest.fixture
def kernels_run(monkeypatch):
    """The kernel of every simulation the fuzzer sets up."""
    kernels = []
    params = ConformanceFuzzer._params

    def spy(self, plan, kernel=None):
        got = params(self, plan, kernel)
        kernels.append(got.kernel)
        return got

    monkeypatch.setattr(ConformanceFuzzer, "_params", spy)
    return kernels


def _bundle(tmp_path, **fields):
    """A fault-mode fib bundle under a benign plan, ``fields`` over."""
    args = dict(workload="fib", variant="base", pass_spec="",
                mode="fault", kernel="dense", plan=FaultPlan(seed=1))
    args.update(fields)
    return write_bundle(str(tmp_path), "case", **args)


class TestReplayKernel:
    def test_cli_replay_runs_the_recorded_kernel(self, tmp_path,
                                                 kernels_run, capsys):
        # Found on dense: a replay without --kernel must not move to
        # the CLI default.
        bundle = _bundle(tmp_path, workload="saxpy", plan=FREEZE)
        assert load_bundle(bundle)["kernel"] == "dense"
        assert main(["fuzz", "--replay", bundle]) == 4
        assert set(kernels_run) == {"dense"}

    def test_kernel_mode_replay_compares_the_recorded_kernels(
            self, tmp_path, kernels_run):
        bundle = _bundle(tmp_path, mode="kernel", kernel="dense",
                         compare_kernel="compiled")
        assert replay_bundle(bundle).ok
        assert set(kernels_run) == {"dense", "compiled"}

    def test_bundle_without_kernel_replays_on_the_default(
            self, tmp_path, kernels_run):
        bundle = _bundle(tmp_path)
        path = os.path.join(bundle, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        del manifest["kernel"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert replay_bundle(bundle).ok
        assert set(kernels_run) == {SimParams.kernel}

    def test_bundle_naming_the_event_kernel_is_refused(
            self, tmp_path, kernels_run, capsys):
        # The event kernel is gone; nothing maps its name to another.
        bundle = _bundle(tmp_path, kernel="event")
        case = replay_bundle(bundle)
        assert not case.ok
        assert case.error == "SimulationError"
        assert "unknown simulation kernel 'event'" in case.message
        assert set(kernels_run) == {"event"}
        assert main(["fuzz", "--replay", bundle]) == 6


class TestReproducibility:
    def test_same_seed_identical_reports(self):
        def run():
            fz = ConformanceFuzzer(pass_spec="")
            return fz.fuzz(workloads=["fib", "spmv"], n_plans=3,
                           seed=2025).to_json()

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            fz = ConformanceFuzzer(pass_spec="")
            return fz.fuzz(workloads=["fib"], n_plans=2,
                           seed=seed).to_json()

        assert run(1)["plan_seeds"] != run(2)["plan_seeds"]

    def test_cli_fuzz_report_reproducible(self, tmp_path, capsys):
        reports = []
        for i in range(2):
            out = str(tmp_path / f"r{i}.json")
            rc = main(["fuzz", "--workloads", "fib", "--plans", "2",
                       "--seed", "77", "--passes", "", "--quiet",
                       "--json", out])
            assert rc == 0
            with open(out) as fh:
                reports.append(json.load(fh))
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert reports[0]["ok"] is True
        assert reports[0]["total"] == 2


class TestFuzzVerdicts:
    def test_failure_survives_without_minimization(self, tmp_path):
        fz = ConformanceFuzzer(pass_spec="",
                               artifacts_dir=str(tmp_path),
                               deadlock_window=500,
                               max_cycles=100_000, minimize=False)
        case = fz.run_case("fib", FREEZE)
        assert not case.ok
        # Un-minimized: the plan is bundled exactly as given.
        manifest = load_bundle(case.bundle)
        assert manifest["plan"] == FREEZE

    def test_verdict_json_shape(self, failing_case):
        doc = failing_case.to_json()
        assert doc["ok"] is False
        assert doc["error"] == "DeadlockError"
        assert doc["exit_code"] == 4
        assert doc["minimized"] == ["freeze"]
        assert doc["bundle"]
