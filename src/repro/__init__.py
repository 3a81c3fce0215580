"""Reproduction of "uIR: An intermediate representation for transforming
and optimizing the microarchitecture of application accelerators"
(Sharifian et al., MICRO-52, 2019).

The package mirrors the paper's toolflow (Figure 3):

* :mod:`repro.frontend` -- MiniC programs -> LLVM-like software IR ->
  uIR (Stage 1).
* :mod:`repro.core` -- the uIR data structure: hierarchical structural
  graph of task blocks, dataflow nodes, structures, and junctions.
* :mod:`repro.opt` -- uopt pass framework and the paper's optimization
  passes (Stage 2).
* :mod:`repro.sim` -- cycle-level simulator of uIR graphs (our stand-in
  for executing the generated RTL).
* :mod:`repro.rtl` -- lowering to Chisel/FIRRTL/Verilog plus the
  analytic synthesis model (Stage 3).
* :mod:`repro.hls`, :mod:`repro.cpu` -- the HLS and ARM A9 baselines.
* :mod:`repro.workloads` -- the paper's 19 benchmark programs.
* :mod:`repro.bench` -- the experiment harness regenerating every table
  and figure.
"""

__version__ = "0.1.0"

# Convenience top-level API (the quickstart surface).  The Pipeline
# facade and the request path (execute) are the front door; the
# building blocks below stay public for tools that need one stage.
from .api import (  # noqa: E402,F401
    Evaluation,
    EvaluationRequest,
    EvaluationResponse,
    Pipeline,
    evaluate,
    evaluate_many,
    execute,
)
from .frontend import compile_minic, translate_module  # noqa: E402,F401
from .frontend.interp import Interpreter, Memory  # noqa: E402,F401
from .sim import (BatchResult, SimParams, simulate,  # noqa: E402,F401
                  simulate_batch)
from .opt import (  # noqa: E402,F401
    PASS_REGISTRY,
    PassManager,
    PassSpec,
    parse_passes,
)
from .rtl import emit_chisel, synthesize  # noqa: E402,F401
from . import telemetry  # noqa: E402,F401
