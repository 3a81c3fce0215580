"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure: these quantify the model decisions the calibration
section documents, so future changes to the execution model can be
checked against them.

* handshake staging (2-register baseline edges vs balanced edges),
* loop-control pipeline depth (the paper's 5-stage example vs retimed),
* invocation pipelining window,
* task-queue depth (coupled vs decoupled interfaces),
* writeback buffers on scratchpads.
"""

import pytest

from repro.api import evaluate
from repro.bench.reporting import emit, format_table
from repro.frontend import translate_module
from repro.frontend.interp import Memory
from repro.opt import (
    MemoryLocalization,
    OpFusion,
    ParameterTuning,
    Pass,
    PassManager,
    ScratchpadBanking,
    WritebackBuffer,
)
from repro.sim import SimParams, simulate
from repro.workloads import get_workload


class _Debuffer(OpFusion):
    """Edge balancing only (no chain fusion, no retiming)."""

    name = "debuffer_only"

    def __init__(self):
        super().__init__(retime_loop_control=False)

    def _find_chains(self, task, budget):
        return []


class _Retime(Pass):
    name = "retime_only"

    def __init__(self, stages):
        self.stages = stages

    def apply(self, circuit):
        n = 0
        for t in circuit.tasks.values():
            for ctl in t.dataflow.nodes_of_kind("loopctl"):
                ctl.pipeline_stages = self.stages
                n += 1
        return self._result(n > 0)


def _cycles(name, passes=None, params=None):
    return evaluate(name, passes, params).cycles


def _run():
    rows = []

    base = _cycles("gemm")
    rows.append(["handshake staging (gemm)", base,
                 _cycles("gemm", [_Debuffer()]),
                 "balanced edges drop a register per hop"])

    rows.append(["loopctl depth 5->2 (covar)", _cycles("covar"),
                 _cycles("covar", [_Retime(2)]),
                 "iteration issue interval"])

    w = get_workload("gemm")
    c = translate_module(w.module())
    m1 = w.fresh_memory()
    win1 = simulate(c, m1, list(w.args),
                    SimParams(loop_invocation_window=1)).cycles
    c = translate_module(w.module())
    m4 = w.fresh_memory()
    win4 = simulate(c, m4, list(w.args),
                    SimParams(loop_invocation_window=4)).cycles
    rows.append(["invocation window 1->4 (gemm)", win1, win4,
                 "concurrent loop invocations per tile"])

    w = get_workload("saxpy")
    def queue_depth(depth):
        circuit = translate_module(w.module())
        for edge in circuit.task_edges:
            edge.queue_depth = depth
        mem = w.fresh_memory()
        return simulate(circuit, mem, list(w.args)).cycles
    rows.append(["task queue 1->16 (saxpy)", queue_depth(1),
                 queue_depth(16), "coupled vs decoupled <||>"])

    sub = [MemoryLocalization(), ScratchpadBanking(2),
           ParameterTuning()]
    rows.append(["writeback buffer (fft, localized)",
                 _cycles("fft", sub),
                 _cycles("fft", sub + [WritebackBuffer(8)]),
                 "stores complete at buffer entry"])

    return rows


def test_ablations(once):
    rows = once(_run)
    table_rows = [[r[0], r[1], r[2], round(r[1] / r[2], 2), r[3]]
                  for r in rows]
    emit("ablations", format_table(
        ["knob", "before_cyc", "after_cyc", "ratio", "what it models"],
        table_rows, title="Model ablations (cycles; ratio >1 = knob "
                          "helps)"))
    by_name = {r[0]: r for r in rows}
    # Each knob must move the needle in its documented direction.
    assert by_name["handshake staging (gemm)"][2] < \
        by_name["handshake staging (gemm)"][1]
    assert by_name["loopctl depth 5->2 (covar)"][2] < \
        by_name["loopctl depth 5->2 (covar)"][1]
    assert by_name["invocation window 1->4 (gemm)"][2] < \
        by_name["invocation window 1->4 (gemm)"][1]
    assert by_name["task queue 1->16 (saxpy)"][2] <= \
        by_name["task queue 1->16 (saxpy)"][1]
    assert by_name["writeback buffer (fft, localized)"][2] <= \
        by_name["writeback buffer (fft, localized)"][1] * 1.02
