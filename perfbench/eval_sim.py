"""``eval-sim``: one in-process caller running ``repro.api.execute()``.

The op set is the all-opts request of each of gemm, fft, saxpy,
stencil and img_scale (the stacks of ``repro.bench.configs.all_opts_for``
written as pass specs), with ``check=True``; each pass runs them in a
seeded order.  Simulation and golden verification dominate.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import Bench, BenchError, Sample

KERNELS = ("gemm", "fft", "saxpy", "stencil", "img_scale")

#: ``all_opts_for`` as spec text: the Cilk set gets banking, fusion
#: and tiling; the loop set banking, localization and fusion; tensor
#: workloads get the tensor units first.
CILK_STACK = "cache_banking=4,fusion,pipelining,tiling=4,tuning"
LOOP_STACK = "cache_banking=4,localize,banking=4,fusion,tuning"


def all_opts_spec(name: str) -> str:
    from repro.bench.configs import CILK_SET, all_opts_for
    from repro.opt import parse_passes
    from repro.workloads import get_workload
    spec = CILK_STACK if name in CILK_SET else LOOP_STACK
    if get_workload(name).tensor:
        spec = "tensor," + spec

    def shape(passes):
        return [(type(p).__name__, sorted(vars(p).items()))
                for p in passes]

    if shape(parse_passes(spec)) != shape(all_opts_for(name)):
        raise BenchError(f"{name}: spec {spec!r} no longer matches "
                         f"repro.bench.configs.all_opts_for")
    return spec


class EvalSim(Bench):
    name = "eval-sim"

    def make_ops(self) -> List:
        from repro.api import request_for
        return [request_for(k, all_opts_spec(k), check=True)
                for k in KERNELS]

    def warm_up(self) -> None:
        from repro.api import execute
        self.reference: Dict[str, int] = {}
        for request in self.ops:
            response = execute(request)
            if not response.ok or response.evaluation["verified"] is not True:
                raise BenchError(f"warm-up {request.describe()}: "
                                 f"{response.describe()}")
            self.reference[request.workload] = response.cycles
            self.accel_cycles += response.cycles
            self.accel_alms += response.evaluation["synth"]["alms"]

    def run_op(self, request) -> List[Sample]:
        from repro.api import execute
        t0 = time.perf_counter()
        response = execute(request)
        latency = time.perf_counter() - t0
        error = None
        if not response.ok:
            error = response.describe()
        elif response.evaluation["verified"] is not True:
            error = "golden check did not pass"
        elif response.cycles != self.reference[request.workload]:
            error = (f"{request.workload}: {response.cycles} cycles, "
                     f"{self.reference[request.workload]} at warm-up")
        return [Sample(latency, response.cycles or 0, error)]
