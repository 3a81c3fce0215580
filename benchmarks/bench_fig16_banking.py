"""Figure 16 — effect of cache banking, 1-4 banks (paper section 6.4,
1.05-1.8x where memory-level parallelism exists; 2MM sees little).

Banking pays off when concurrent accesses exist to spread over banks;
as in the paper's designs, the measurement uses the deeper invocation
pipelining the execution model allows (loop_invocation_window=4, see
EXPERIMENTS.md).
"""

from repro.api import evaluate
from repro.bench.configs import banking_stack
from repro.bench.reporting import emit, format_table
from repro.sim import SimParams

NAMES = ["gemm", "fft", "2mm", "3mm", "saxpy", "conv"]
BANKS = [2, 4]


def _params():
    return SimParams(loop_invocation_window=4)


def _run():
    rows = []
    curves = {}
    for name in NAMES:
        base = evaluate(name, params=_params())
        speeds = {1: 1.0}
        for banks in BANKS:
            r = evaluate(name, banking_stack(banks), _params())
            speeds[banks] = base.time_us / r.time_us
        curves[name] = speeds
        rows.append([name, base.cycles] +
                    [round(speeds[b], 2) for b in BANKS])
    return rows, curves


def test_fig16_cache_banking(once):
    rows, curves = once(_run)
    emit("fig16_banking", format_table(
        ["bench", "base_cycles", "2 banks", "4 banks"], rows,
        title="Figure 16: L1 cache banking speedup (1 bank = 1)"))

    # Workloads with parallel access patterns benefit...
    gainers = [n for n in ("gemm", "fft", "3mm")
               if curves[n][4] >= 1.05]
    assert len(gainers) >= 2, curves
    # ...and nothing collapses; flat workloads stay flat (paper: SAXPY
    # reads two streams and gains little from 4-way partitioning).
    for name, speeds in curves.items():
        assert 0.90 <= speeds[2] <= 2.0, (name, speeds)
        assert 0.90 <= speeds[4] <= 2.0, (name, speeds)
    assert curves["saxpy"][4] <= 1.15, curves["saxpy"]
