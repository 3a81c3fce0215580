"""Property-based batch equivalence: for random per-lane inputs and
random batch sizes 1-16, the batched driver's per-lane results and
memory are bit-identical to sequential dense-kernel runs.

Parametrized over the four bench workloads (gemm / fft / saxpy /
stencil — the ones the CI throughput gates run on).  Inputs vary
per lane with a type-preserving perturbation of float words, so the
payload genuinely diverges across lanes while the control (loop
bounds, addresses) stays uniform and the vectorized path is the one
under test.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import translate_module
from repro.sim import SimParams, simulate, simulate_batch
from repro.workloads import WORKLOADS

BENCH_WORKLOADS = ["gemm", "fft", "saxpy", "stencil"]

_CIRCUITS = {}


def _circuit(name):
    if name not in _CIRCUITS:
        _CIRCUITS[name] = translate_module(
            WORKLOADS[name].module(), name=f"{name}_prop")
    return _CIRCUITS[name]


_PROP = settings(
    max_examples=5, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
@_PROP
@given(batch=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_batched_matches_sequential(name, batch, seed):
    w = WORKLOADS[name]
    circuit = _circuit(name)
    args = list(w.args_for())
    rng = random.Random(seed)
    lanes = []
    for _ in range(batch):
        mem = w.fresh_memory()
        for i, v in enumerate(mem.words):
            if type(v) is float and rng.random() < 0.4:
                mem.words[i] = float(rng.randrange(-50, 50))
        lanes.append(mem)
    refs = []
    for mem in lanes:
        ref_mem = w.fresh_memory()
        ref_mem.words[:] = mem.words
        result = simulate(circuit, ref_mem, args,
                          SimParams(kernel="dense", validate=False))
        refs.append((result.cycles, list(result.results),
                     list(ref_mem.words)))
    result = simulate_batch(circuit, lanes, [args] * batch,
                            SimParams(kernel="compiled",
                                      validate=False))
    assert result.ok, result.errors
    for i in range(batch):
        assert result.results[i].cycles == refs[i][0], \
            f"lane {i}/{batch} cycles"
        assert list(result.results[i].results) == refs[i][1], \
            f"lane {i}/{batch} results"
        assert lanes[i].words == refs[i][2], f"lane {i}/{batch} memory"
