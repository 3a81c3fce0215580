"""Figure 17 — stacking multiple uopt optimizations (paper section 6.5,
cumulative 20%-4.2x).

Cilk accelerators get Banking+Fusion+Tiling; everything else gets
Banking+Localization+OpFusion (the paper's two groups).
"""

from repro.api import evaluate
from repro.bench.configs import CILK_SET, all_opts_for
from repro.bench.reporting import emit, format_table

NAMES = ["saxpy", "stencil", "img_scale", "gemm", "covar", "fft",
         "spmv", "2mm", "3mm", "conv", "dense8", "dense16",
         "softm8", "softm16"]


def _run():
    rows = []
    speedups = {}
    for name in NAMES:
        base = evaluate(name)
        opt = evaluate(name, all_opts_for(name))
        speedup = base.time_us / opt.time_us
        speedups[name] = speedup
        group = "Banking,Fusion,Tile" if name in CILK_SET \
            else "Banking,Localization,Op-Fusion"
        rows.append([name, group, base.cycles, opt.cycles,
                     round(opt.cycles / base.cycles, 2),
                     round(speedup, 2)])
    return rows, speedups


def test_fig17_stacked(once):
    rows, speedups = once(_run)
    emit("fig17_stacked", format_table(
        ["bench", "stack", "base_cyc", "opt_cyc", "normalized_exe",
         "speedup"], rows,
        title="Figure 17: stacked uopt optimizations (baseline = 1)"))

    # Paper: cumulative benefits between ~1.2x and 4.2x.
    for name, speedup in speedups.items():
        assert speedup >= 1.05, (name, speedup)
        assert speedup <= 6.0, (name, speedup)
    # The Cilk group (tiling) reaches the top of the band.
    assert max(speedups[n] for n in CILK_SET
               if n in speedups) >= 2.0, speedups
