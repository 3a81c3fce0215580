"""Shared test fixtures and helpers."""

import pytest

from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Interpreter, Memory
from repro.sim import SimParams, simulate

#: Stats keys only the compiled kernel fills (stall attribution) or
#: that name the kernel; the rest of the document must match dense.
UNSHARED_STATS = ("kernel", "stall_cycles", "node_stalls",
                  "source_stalls")


def run_both(source, args, init=None, passes=None, params=None):
    """Compile MiniC, run interpreter and simulator, return both
    memories plus the sim result (the central equivalence helper)."""
    module = compile_minic(source)
    golden = Memory(module)
    if init:
        init(golden)
    Interpreter(module, golden).run(*args)

    circuit = translate_module(module)
    if passes:
        from repro.opt import PassManager
        PassManager(list(passes)).run(circuit)
    mem = Memory(module)
    if init:
        init(mem)
    result = simulate(circuit, mem, list(args), params)
    return golden, mem, result


def assert_equivalent(source, args, init=None, passes=None):
    golden, mem, result = run_both(source, args, init, passes)
    assert mem.words == golden.words, (
        "simulation diverged from reference interpreter")
    return result


@pytest.fixture
def hashed_circuits(monkeypatch):
    """Names of the circuits hashed while the test runs: every circuit
    fingerprint serializes the circuit first, whichever module
    imported ``circuit_fingerprint``."""
    from repro.core import serialize
    names = []
    to_dict = serialize.circuit_to_dict

    def counting(circuit):
        names.append(circuit.name)
        return to_dict(circuit)

    monkeypatch.setattr(serialize, "circuit_to_dict", counting)
    return names


@pytest.fixture
def saxpy_source():
    return """
array x: f32[32];
array y: f32[32];
func main(n: i32, a: f32) {
  for (i = 0; i < n; i = i + 1) {
    y[i] = a * x[i] + y[i];
  }
}
"""


@pytest.fixture
def saxpy_init():
    def init(mem):
        mem.set_array("x", [float(i % 7) for i in range(32)])
        mem.set_array("y", [1.0] * 32)
    return init
