"""Unit tests for the fault-injection layer: plan determinism and
serialization, per-site derivation, fault channels, the max-cycles
boundary (both kernels), and the wall-clock watchdog."""

import pytest

from repro.errors import SimulationTimeout, WatchdogTimeout
from repro.frontend import translate_module
from repro.sim import SimParams, simulate
from repro.sim.faults import (FAULT_CATEGORIES, FaultChannel,
                              FaultEventChannel, FaultInjector,
                              FaultPlan)
from repro.util.rng import derive_seed, rng_for, site_fraction
from repro.workloads import get_workload


def _sim(workload, **params):
    w = get_workload(workload)
    circuit = translate_module(w.module(), name=workload)
    return simulate(circuit, w.fresh_memory(), list(w.args_for()),
                    SimParams(**params))


class TestFaultPlan:
    def test_generate_deterministic(self):
        assert FaultPlan.generate(7) == FaultPlan.generate(7)
        assert FaultPlan.generate(7) != FaultPlan.generate(8)

    def test_json_round_trip(self):
        plan = FaultPlan.generate(3, intensity=1.5)
        doc = plan.to_json()
        assert doc["schema"] == "repro.faultplan/v1"
        assert FaultPlan.from_json(doc) == plan

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_json({"schema": "bogus/v9", "seed": 1})

    def test_without_category(self):
        plan = FaultPlan.generate(3)
        cats = plan.active_categories()
        assert cats  # generated plans always enable something
        for cat in cats:
            assert cat in FAULT_CATEGORIES
            reduced = plan.without(cat)
            assert cat not in reduced.active_categories()
            assert reduced.seed == plan.seed
        with pytest.raises(ValueError, match="unknown fault category"):
            plan.without("cosmic_rays")

    def test_freeze_is_a_category(self):
        plan = FaultPlan(seed=1, freeze_at=100)
        assert plan.active_categories() == ["freeze"]
        assert plan.without("freeze").active_categories() == []


class TestInjectorDerivation:
    def test_site_decisions_are_stable(self):
        plan = FaultPlan.generate(11)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for ord_ in range(20):
            assert a.channel_extra("t", ord_) == \
                b.channel_extra("t", ord_)
            assert a.stall_window("t", ord_) == \
                b.stall_window("t", ord_)
        assert a.fu_extra("t", "mul_3") == b.fu_extra("t", "mul_3")
        assert a.memory_extra("spad") == b.memory_extra("spad")

    def test_rates_are_respected(self):
        plan = FaultPlan(seed=5, jitter_rate=0.0, jitter_max=4,
                         fu_rate=0.0, fu_latency_max=4)
        inj = FaultInjector(plan)
        assert all(inj.channel_extra("t", i) == 0 for i in range(50))
        assert inj.fu_extra("t", "add_1") == 0

    def test_full_rate_hits_every_site(self):
        plan = FaultPlan(seed=5, jitter_rate=1.0, jitter_max=3)
        inj = FaultInjector(plan)
        extras = [inj.channel_extra("t", i) for i in range(50)]
        assert all(1 <= e <= 3 for e in extras)
        assert len(set(extras)) > 1  # per-site, not one global value

    def test_freeze_dominates_transient_window(self):
        plan = FaultPlan(seed=5, stall_rate=1.0, stall_max=10,
                         freeze_at=123)
        assert FaultInjector(plan).stall_window("t", 0) == (123, None)

    def test_grant_shuffle_preserves_multiset(self):
        from collections import deque
        plan = FaultPlan(seed=5, arbiter_shuffle=True)
        inj = FaultInjector(plan)
        q = deque(range(8))
        inj.now = 17
        inj.shuffle_grants("junction0", q)
        assert sorted(q) == list(range(8))
        # Same (seed, junction, cycle) => same permutation.
        q2 = deque(range(8))
        inj2 = FaultInjector(plan)
        inj2.now = 17
        inj2.shuffle_grants("junction0", q2)
        assert list(q) == list(q2)


class _OwnerStub:
    """Minimal stand-in for a DataflowInstance wiring EventChannels."""

    def __init__(self):
        self._dirty = []

    def wake_node(self, idx):
        pass


def _make(cls, **kw):
    ch = cls(**kw)
    if isinstance(ch, FaultEventChannel):
        ch.owner = _OwnerStub()
    return ch


class TestFaultChannels:
    @pytest.mark.parametrize("cls", [FaultChannel, FaultEventChannel])
    def test_jitter_delays_visibility(self, cls):
        inj = FaultInjector(FaultPlan(seed=1))
        # stages=1 normally means visible after one commit; extra=2
        # stretches that to three commits.
        ch = _make(cls, capacity=2, stages=1, extra=2, window=None,
                   injector=inj)
        assert ch.can_push()
        ch.push(42)
        for _ in range(2):
            ch.commit()
            assert not ch.ready()
        ch.commit()
        assert ch.ready() and ch.pop() == 42

    @pytest.mark.parametrize("cls", [FaultChannel, FaultEventChannel])
    def test_extra_adds_buffering(self, cls):
        inj = FaultInjector(FaultPlan(seed=1))
        ch = _make(cls, capacity=1, stages=1, extra=2, window=None,
                   injector=inj)
        # Each injected register stage is a buffer slot too.
        for v in range(3):
            assert ch.can_push()
            ch.push(v)
            ch.commit()
        assert not ch.can_push()

    @pytest.mark.parametrize("cls", [FaultChannel, FaultEventChannel])
    def test_stall_window_withholds_credit(self, cls):
        inj = FaultInjector(FaultPlan(seed=1))
        ch = _make(cls, capacity=2, stages=1, extra=0, window=(5, 8),
                   injector=inj)
        inj.now = 4
        assert ch.can_push()
        for now in (5, 6, 7):
            inj.now = now
            assert not ch.can_push()
        inj.now = 8
        assert ch.can_push()

    @pytest.mark.parametrize("cls", [FaultChannel, FaultEventChannel])
    def test_permanent_freeze_never_restores(self, cls):
        inj = FaultInjector(FaultPlan(seed=1))
        ch = _make(cls, capacity=2, stages=1, extra=0,
                   window=(5, None), injector=inj)
        inj.now = 1_000_000
        assert not ch.can_push()

    @pytest.mark.parametrize("cls", [FaultChannel, FaultEventChannel])
    def test_fifo_order_through_jitter(self, cls):
        inj = FaultInjector(FaultPlan(seed=1))
        ch = _make(cls, capacity=4, stages=1, extra=3, window=None,
                   injector=inj)
        ch.push(1)
        ch.commit()
        ch.push(2)
        for _ in range(5):
            ch.commit()
        assert ch.pop() == 1
        assert ch.pop() == 2


class TestMaxCyclesBoundary:
    """The historical ``now > max_cycles`` allowed one extra cycle;
    both kernels must now stop at exactly ``max_cycles``."""

    @pytest.mark.parametrize("kernel", ["event", "dense"])
    def test_raises_at_exact_bound(self, kernel):
        with pytest.raises(SimulationTimeout) as exc:
            _sim("gemm", kernel=kernel, max_cycles=100)
        assert exc.value.cycle == 100
        assert exc.value.max_cycles == 100
        assert "max_cycles=100" in str(exc.value)

    def test_both_kernels_raise_identically(self):
        cycles = set()
        for kernel in ("event", "dense"):
            with pytest.raises(SimulationTimeout) as exc:
                _sim("gemm", kernel=kernel, max_cycles=257)
            cycles.add(exc.value.cycle)
        assert cycles == {257}

    def test_completing_run_unaffected(self):
        result = _sim("fib", kernel="event")
        # A bound of exactly the completion cycle count must not trip.
        again = _sim("fib", kernel="event",
                     max_cycles=result.cycles)
        assert again.cycles == result.cycles

    def test_timeout_carries_partial_stats(self):
        with pytest.raises(SimulationTimeout) as exc:
            _sim("gemm", max_cycles=300)
        assert exc.value.stats.cycles == 300


class TestWatchdog:
    def test_wallclock_timeout_raises(self):
        # Zero budget: trips at the first stride check (cycle 2048).
        with pytest.raises(WatchdogTimeout) as exc:
            _sim("gemm", wallclock_timeout=0.0)
        assert exc.value.cycle == 2048
        assert exc.value.limit == 0.0
        assert exc.value.elapsed > 0.0

    def test_generous_budget_never_trips(self):
        result = _sim("gemm", wallclock_timeout=600.0)
        assert result.cycles > 0


class TestKernelEquivalenceUnderFaults:
    """Bit-identical event/dense equivalence extends to faulted runs —
    same cycles, same results, same memory."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_gemm(self, seed):
        plan = FaultPlan.generate(seed)
        outcomes = []
        for kernel in ("event", "dense"):
            w = get_workload("gemm")
            circuit = translate_module(w.module(), name="gemm")
            mem = w.fresh_memory()
            r = simulate(circuit, mem, list(w.args_for()),
                         SimParams(kernel=kernel, faults=plan))
            outcomes.append((r.cycles, r.results, list(mem.words)))
        assert outcomes[0] == outcomes[1]


class TestRngHelpers:
    def test_rng_for_matches_legacy_sequences(self):
        import random
        assert rng_for(42).random() == random.Random(42).random()

    def test_streams_are_independent(self):
        assert rng_for(42, "a").random() != rng_for(42, "b").random()

    def test_derive_seed_order_sensitive(self):
        assert derive_seed("a", 1) != derive_seed(1, "a")

    def test_site_fraction_range(self):
        vals = [site_fraction(9, "s", i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 150
