"""Figure 18 — fully-optimized uIR accelerators vs an ARM A9 @ 1 GHz
(paper section 6.6, 2-17x in the accelerator's favour).

Accelerator time = simulated cycles / modeled FPGA clock; CPU time =
dual-issue-model cycles / 1 GHz, both running identical programs.
The tensor workloads use the Tensor2D function units (the paper's
compute-density argument).
"""

from repro.api import evaluate
from repro.bench.configs import all_opts_for
from repro.bench.reporting import emit, format_table
from repro.cpu.arm_model import ArmA9Model
from repro.workloads import WORKLOADS

NAMES = ["gemm", "covar", "fft", "spmv", "2mm", "3mm", "img_scale",
         "relu_t", "2mm_t", "conv_t"]
_TENSOR_SRC = ("2mm_t", "conv_t")


def _run():
    rows = []
    speedups = {}
    for name in NAMES:
        w = WORKLOADS[name]
        if name in _TENSOR_SRC:
            acc = evaluate(name, variant="tensor")
        else:
            acc = evaluate(name, all_opts_for(name))
        cpu = ArmA9Model(w.module()).run(w.fresh_memory(), *w.args)
        speedup = cpu.time_us / acc.time_us
        speedups[name] = speedup
        rows.append([name, acc.cycles, round(acc.synth.fpga_mhz),
                     cpu.cycles, round(speedup, 2)])
    return rows, speedups


def test_fig18_vs_arm(once):
    rows, speedups = once(_run)
    emit("fig18_vs_arm", format_table(
        ["bench", "acc_cycles", "acc_MHz", "arm_cycles",
         "speedup_vs_ARM"], rows,
        title="Figure 18: optimized uIR vs ARM A9 1 GHz (ARM = 1, "
              ">1 accelerator wins)"))

    # Paper: accelerators win 2-17x.
    for name, speedup in speedups.items():
        assert speedup >= 1.2, (name, speedup)
        assert speedup <= 30.0, (name, speedup)
    assert sum(1 for s in speedups.values() if s >= 2.0) >= 7, speedups
    # Tensor function units deliver the top of the range.
    assert max(speedups[n] for n in ("relu_t", "2mm_t", "conv_t")) \
        >= 4.0, speedups
