"""Figure 9 — baseline uIR vs commercial-HLS-style accelerators.

Normalized execution time (HLS = 1, lower is better for uIR) for the
loop workloads, combining simulated cycles with each flow's achievable
clock (uIR ~20% higher, paper section 5.2).  Shape checks: uIR wins on
the majority (dataflow execution + clock), and HLS wins on FFT where
its inferred streaming buffers shine.
"""

from repro.api import evaluate
from repro.bench.reporting import emit, format_table
from repro.hls import estimate_hls
from repro.workloads import WORKLOADS

NAMES = ["gemm", "covar", "fft", "spmv", "2mm", "3mm", "conv",
         "dense8", "dense16", "softm8", "softm16"]


def _run():
    rows = []
    normalized = {}
    for name in NAMES:
        w = WORKLOADS[name]
        uir = evaluate(name)
        hls = estimate_hls(w.module(), w.fresh_memory(), *w.args)
        hls_time = hls.time_at(uir.synth.fpga_mhz)
        norm = uir.time_us / hls_time
        normalized[name] = norm
        rows.append([name, uir.cycles, hls.cycles,
                     round(uir.synth.fpga_mhz), round(norm, 2)])
    return rows, normalized


def test_fig9_vs_hls(once):
    rows, normalized = once(_run)
    emit("fig9_vs_hls", format_table(
        ["bench", "uir_cycles", "hls_cycles", "uir_MHz",
         "normalized_exe (HLS=1, <1 uIR wins)"], rows,
        title="Figure 9: baseline uIR vs HLS"))

    wins = [n for n, v in normalized.items() if v < 1.0]
    # Paper: uIR better on most workloads (10-30%+).
    assert len(wins) >= 7, normalized
    # Paper: HLS's streaming buffers win on FFT.
    assert normalized["fft"] > 1.0, normalized["fft"]
    # GEMM-family: uIR better (nested-loop parallelism + clock).
    for name in ("gemm", "2mm", "3mm", "conv"):
        assert normalized[name] < 0.95, (name, normalized[name])
