"""Property-based equivalence: random MiniC programs behave identically
under the reference interpreter and the cycle-level uIR simulation,
with and without optimization passes.

This is the repository's strongest invariant — the paper's claim that
microarchitecture transformations are decoupled from behavior.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Interpreter, Memory
from repro.opt import (
    CacheBanking,
    MemoryLocalization,
    OpFusion,
    ParameterTuning,
    PassManager,
    ScratchpadBanking,
    TaskPipelining,
)
from repro.sim import SimParams, simulate
from repro.sim.faults import FaultPlan
from tests.conftest import UNSHARED_STATS

# ---------------------------------------------------------------------------
# Random program generator (always well-formed by construction)
# ---------------------------------------------------------------------------

_BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expressions(draw, names, depth=0):
    """An integer expression over ``names`` (safe: no division)."""
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0 or not names:
            return str(draw(st.integers(-20, 20)))
        if choice == 1:
            return draw(st.sampled_from(names))
        return f"inp[({draw(st.sampled_from(names))}) & 15]"
    op = draw(st.sampled_from(_BINOPS))
    left = draw(expressions(names, depth + 1))
    right = draw(expressions(names, depth + 1))
    return f"({left} {op} {right})"


@st.composite
def loop_bodies(draw, names):
    """Loop bodies whose stores are race-free by construction: each
    store site s writes ``out[i*4 + s]`` (iteration-disjoint), matching
    the Cilk-style race-freedom the execution model assumes (see
    DESIGN.md).  Data and condition expressions stay fully random.
    A conditional store becomes a predicated store; a conditional
    assignment to a local becomes a ``select`` node."""
    lines = []
    local_names = list(names)
    slot = 0
    n_stmts = draw(st.integers(1, 3))
    for _ in range(n_stmts):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            var = f"t{len(local_names)}"
            lines.append(
                f"var {var}: i32 = {draw(expressions(local_names))};")
            local_names.append(var)
        elif kind == 1:
            lines.append(
                f"out[i * 4 + {slot}] = "
                f"{draw(expressions(local_names))};")
            slot += 1
        elif kind == 2:
            cond = draw(expressions(local_names))
            body = (f"out[i * 4 + {slot}] = "
                    f"{draw(expressions(local_names))};")
            slot += 1
            lines.append(f"if (({cond}) > 0) {{ {body} }}")
        else:
            var = f"t{len(local_names)}"
            init = draw(expressions(local_names))
            cond = draw(expressions(local_names))
            lines.append(
                f"var {var}: i32 = {init}; "
                f"if (({cond}) > 0) {{ {var} = "
                f"{draw(expressions(local_names))}; }}")
            local_names.append(var)
    if slot == 0:
        lines.append(f"out[i * 4] = {draw(expressions(local_names))};")
    return "\n    ".join(lines)


@st.composite
def reductions(draw):
    """An optional loop-carried reduction: its declaration,
    per-iteration update and final store (all empty when not drawn).
    It carries either a local ``acc`` through a phi, or a value in
    memory: ``out[60]`` is read, modified and written every
    iteration.  That loop-carried memory dependence serializes the
    loop (``max_in_flight`` 1), so its loop control stops at its
    in-flight window until the iteration before retires."""
    if not draw(st.booleans()):
        return "", "", ""
    if draw(st.booleans()):
        return ("var acc: i32 = 0;",
                f"acc = acc + ({draw(expressions(['i', 'acc']))});",
                "out[60] = acc;")
    return ("",
            f"out[60] = out[60] + ({draw(expressions(['i', 'n']))});",
            "")


@st.composite
def programs(draw):
    trip = draw(st.integers(1, 12))
    body = draw(loop_bodies(["i", "n"]))
    red_decl, red_update, red_store = draw(reductions())
    source = f"""
array inp: i32[16];
array out: i32[64];
func main(n: i32) {{
  {red_decl}
  for (i = 0; i < n; i = i + 1) {{
    {body}
    {red_update}
  }}
  {red_store}
}}
"""
    return source, trip


_SLOW = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large,
                                        HealthCheck.filter_too_much])


def _check(source, trip, passes=()):
    module = compile_minic(source)
    golden = Memory(module)
    golden.set_array("inp", [(i * 13 + 5) % 97 - 40 for i in range(16)])
    Interpreter(module, golden).run(trip)

    circuit = translate_module(module)
    if passes:
        PassManager(list(passes)).run(circuit)
    mem = Memory(module)
    mem.set_array("inp", [(i * 13 + 5) % 97 - 40 for i in range(16)])
    simulate(circuit, mem, [trip])
    assert mem.words == golden.words, source


class TestRandomPrograms:
    @_SLOW
    @given(programs())
    def test_baseline_equivalence(self, prog):
        source, trip = prog
        _check(source, trip)

    @_SLOW
    @given(programs())
    def test_fusion_preserves_behavior(self, prog):
        source, trip = prog
        _check(source, trip, [OpFusion()])

    @_SLOW
    @given(programs())
    def test_memory_passes_preserve_behavior(self, prog):
        source, trip = prog
        _check(source, trip,
               [MemoryLocalization(), ScratchpadBanking(2),
                ParameterTuning()])

    @_SLOW
    @given(programs())
    def test_full_stack_preserves_behavior(self, prog):
        source, trip = prog
        _check(source, trip,
               [CacheBanking(2), MemoryLocalization(),
                ScratchpadBanking(4), OpFusion(), TaskPipelining(),
                ParameterTuning()])


# ---------------------------------------------------------------------------
# The dense sweep as an independent oracle for the compiled kernel
# ---------------------------------------------------------------------------

def _run_kernel(module, circuit, trip, kernel, plan):
    """One simulation; returns (outcome, memory words) where outcome
    is either ("ok", cycles, results, stats-doc) or ("raise", type)."""
    mem = Memory(module)
    mem.set_array("inp", [(i * 13 + 5) % 97 - 40 for i in range(16)])
    try:
        res = simulate(circuit, mem, [trip],
                       SimParams(kernel=kernel, faults=plan))
    except Exception as exc:  # noqa: BLE001 - compared across kernels
        return ("raise", type(exc)), mem.words
    doc = res.stats.to_json()
    for key in UNSHARED_STATS:
        doc.pop(key)
    return ("ok", res.cycles, list(res.results), doc), mem.words


@st.composite
def task_programs(draw):
    """:func:`programs` with task structure: the loop may become a
    ``parallel_for`` (one spawned task per iteration) and may call a
    helper function (a call task), which may in turn call a looping
    one, so several task blocks queue, start, park and wake one
    another.  A plain ``for`` loop may also carry a reduction."""
    trip = draw(st.integers(1, 12))
    body = draw(loop_bodies(["i", "n"]))
    helper = ""
    if draw(st.booleans()):
        result = draw(expressions(["v"]))
        if draw(st.booleans()):
            helper = (f"func g(v: i32) -> i32 {{\n"
                      f"  var s: i32 = 0;\n"
                      f"  for (k = 0; k < {draw(st.integers(0, 24))}; "
                      f"k = k + 1) {{ s = s + inp[(v + k) & 15]; }}\n"
                      f"  return s;\n}}\n")
            result = f"g(v) + ({result})"
        helper += (f"func h(v: i32) -> i32 {{\n"
                   f"  return {result};\n}}")
        body += (f"\n    out[i * 4 + 3] = "
                 f"h({draw(expressions(['i', 'n']))});")
    loop = draw(st.sampled_from(["for", "parallel_for"]))
    # A reduction carries a value across iterations, which a
    # parallel_for's independent bodies cannot.
    red_decl, red_update, red_store = \
        draw(reductions()) if loop == "for" else ("", "", "")
    source = f"""
array inp: i32[16];
array out: i32[64];
{helper}
func main(n: i32) {{
  {red_decl}
  {loop} (i = 0; i < n; i = i + 1) {{
    {body}
    {red_update}
  }}
  {red_store}
}}
"""
    return source, trip


class TestDenseOracle:
    """kernel="compiled" must match the dense sweep on random task
    programs: outcome, cycles, results, memory and the stats document
    apart from :data:`UNSHARED_STATS` (dense attributes no stalls).

    The compiled kernel holds all the wake plumbing — the blocks with
    work, wake routing, parking, the instance sweep and its commit —
    and the dense kernel none of it: every cycle it visits every block
    and sweeps every node of every active instance through the node
    sims' reference ``tick``.  Baseline and fully optimized circuits,
    fault-free and under generated fault plans.
    """

    def _check(self, prog, optimized, plan):
        source, trip = prog
        module = compile_minic(source)
        circuit = translate_module(module)
        if optimized:
            PassManager([CacheBanking(2), MemoryLocalization(),
                         ScratchpadBanking(4), OpFusion(),
                         TaskPipelining(), ParameterTuning()]).run(circuit)
        de, de_words = _run_kernel(module, circuit, trip, "dense", plan)
        co, co_words = _run_kernel(module, circuit, trip, "compiled",
                                   plan)
        assert co == de, source
        assert co_words == de_words, source

    @_SLOW
    @given(task_programs(), st.booleans())
    def test_compiled_matches_dense(self, prog, optimized):
        self._check(prog, optimized, None)

    @_SLOW
    @given(task_programs(), st.booleans(), st.integers(0, 2 ** 16),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_compiled_matches_dense_under_faults(self, prog, optimized,
                                                 seed, intensity):
        self._check(prog, optimized,
                    FaultPlan.generate(seed, intensity=intensity))
