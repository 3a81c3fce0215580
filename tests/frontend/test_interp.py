"""Tests for the reference interpreter."""

import ast
import gc
import inspect
import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import InterpreterError, IRError
from repro.frontend import compile_minic
from repro.frontend import interp as interp_module
from repro.frontend.builder import IRBuilder
from repro.frontend.interp import Interpreter, Memory
from repro.frontend.ir import Detach, Instruction, Phi, Reattach
from repro.types import BOOL, I32


def interp(source, *args, init=None):
    module = compile_minic(source)
    mem = Memory(module)
    if init:
        init(mem)
    it = Interpreter(module, mem)
    result = it.run(*args)
    return mem, result, it


class TestMemory:
    def test_layout_sequential(self):
        module = compile_minic(
            "array a: i32[4]; array b: f32[2]; func main() { }")
        mem = Memory(module)
        assert mem.base["a"] == 0
        assert mem.base["b"] == 4
        assert len(mem.words) == 6

    def test_tensor_layout(self):
        module = compile_minic(
            "array t: tensor<2x2xf32>[2]; func main() { }")
        mem = Memory(module)
        mem.set_array("t", [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])
        assert mem.words == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert mem.get_array("t")[1] == (5.0, 6.0, 7.0, 8.0)

    def test_out_of_range_read(self):
        module = compile_minic("array a: i32[2]; func main() { }")
        mem = Memory(module)
        with pytest.raises(InterpreterError):
            mem.read(2)

    def test_wrong_tensor_width_rejected(self):
        module = compile_minic(
            "array t: tensor<2x2xf32>[1]; func main() { }")
        mem = Memory(module)
        with pytest.raises(InterpreterError):
            mem.set_array("t", [(1.0, 2.0)])


class TestArithmetic:
    def test_division_truncates_toward_zero(self):
        mem, _, _ = interp("""
array out: i32[2];
func main(n: i32) {
  out[0] = (0 - 7) / 2;
  out[1] = 7 / 2;
}
""", 0)
        assert mem.get_array("out") == [-3, 3]

    def test_rem_sign(self):
        mem, _, _ = interp("""
array out: i32[2];
func main(n: i32) {
  out[0] = (0 - 7) % 3;
  out[1] = 7 % 3;
}
""", 0)
        assert mem.get_array("out") == [-1, 1]

    def test_division_by_zero(self):
        with pytest.raises(InterpreterError):
            interp("array o: i32[1]; func main(n: i32) { o[0] = 1 / n; }",
                   0)

    def test_shifts(self):
        mem, _, _ = interp("""
array out: i32[3];
func main(n: i32) {
  out[0] = 1 << 4;
  out[1] = 256 >> 3;
  out[2] = n & 12;
}
""", 13)
        assert mem.get_array("out") == [16, 32, 12]

    def test_exp_and_sqrt(self):
        mem, _, _ = interp("""
array out: f32[2];
func main() { out[0] = exp(1.0); out[1] = sqrt(2.0); }
""")
        assert abs(mem.get_array("out")[0] - math.e) < 1e-9
        assert abs(mem.get_array("out")[1] - math.sqrt(2)) < 1e-9

    def test_tensor_matmul_semantics(self):
        mem, _, _ = interp("""
array a: tensor<2x2xf32>[1];
array b: tensor<2x2xf32>[1];
array c: tensor<2x2xf32>[1];
func main() { c[0] = a[0] * b[0]; }
""", init=lambda m: (m.set_array("a", [(1.0, 2.0, 3.0, 4.0)]),
                     m.set_array("b", [(5.0, 6.0, 7.0, 8.0)])))
        # [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        assert mem.get_array("c")[0] == (19.0, 22.0, 43.0, 50.0)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_add_matches_python(self, a, b):
        module = compile_minic("""
array out: i32[1];
func main(a: i32, b: i32) { out[0] = a + b; }
""")
        mem = Memory(module)
        Interpreter(module, mem).run(a, b)
        assert mem.get_array("out") == [a + b]


class TestControlAndCalls:
    def test_recursion(self):
        _, result, _ = interp("""
array o: i32[1];
func fact(n: i32) -> i32 {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
func main(n: i32) -> i32 { return fact(n); }
""", 6)
        assert result == 720

    def test_serial_elision_of_spawn(self):
        module = compile_minic("""
array a: i32[4];
func w(i: i32) { a[i] = i + 10; }
func main(n: i32) {
  parallel_for (i = 0; i < n; i = i + 1) { w(i); }
}
""")
        detach, = [i for block in module.main.blocks
                   for i in block.instructions if isinstance(i, Detach)]
        mem = Memory(module)
        visits = []
        Interpreter(module, mem, block_hook=visits.append).run(4)
        assert mem.get_array("a") == [10, 11, 12, 13]
        assert visits.count(detach.body) == 4

    def test_block_hook_sees_trace(self):
        module = compile_minic("""
array a: i32[4];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = i; }
}
""")
        trace = []
        Interpreter(module, Memory(module),
                    block_hook=lambda b: trace.append(b.name)).run(3)
        assert trace[0] == "entry"
        assert trace.count("i.body") == 3

    def test_wrong_arity(self):
        module = compile_minic("func main(n: i32) { }")
        with pytest.raises(InterpreterError):
            Interpreter(module).run()


def _main(*args):
    """A builder positioned in the entry block of ``@main(args)``, with
    one ``i32`` global ``out``."""
    b = IRBuilder()
    b.global_array("out", I32, 1)
    b.new_function("main", list(args))
    return b


class TestErrors:
    def test_undefined_value(self):
        b = _main()
        ghost = Instruction("add", [b.const(1), b.const(2)], I32, "ghost")
        b.store(b.add(ghost, 1), b.index(b.module.globals["out"], 0))
        b.ret()
        with pytest.raises(InterpreterError,
                           match="use of undefined value %ghost"):
            Interpreter(b.module).run()

    def test_step_limit(self, monkeypatch):
        monkeypatch.setattr(interp_module, "MAX_STEPS", 100)
        module = compile_minic("""
array a: i32[1];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[0] = a[0] + i; }
}
""")
        Interpreter(module).run(5)
        with pytest.raises(InterpreterError, match="step limit exceeded"):
            Interpreter(module).run(1000)

    def test_float_division_by_zero(self):
        with pytest.raises(InterpreterError, match="float division by zero"):
            interp("array o: f32[1]; func main(x: f32, y: f32) "
                   "{ o[0] = x / y; }", 1.0, 0.0)

    def test_integer_remainder_by_zero(self):
        with pytest.raises(InterpreterError,
                           match="integer remainder by zero"):
            interp("array o: i32[1]; func main(n: i32) { o[0] = 7 % n; }",
                   0)

    def test_out_of_range_store(self):
        source = "array a: i32[4]; func main(n: i32) { a[n] = 1; }"
        with pytest.raises(InterpreterError,
                           match=r"memory access out of range: 4 \(size 4\)"):
            interp(source, 4)
        with pytest.raises(InterpreterError,
                           match="memory access out of range: -1"):
            interp(source, -1)

    def test_unsupported_opcode(self):
        b = _main()
        b._append(Instruction("frobnicate", [b.const(1)], I32, "f"))
        b.ret()
        with pytest.raises(InterpreterError,
                           match="unsupported opcode frobnicate"):
            Interpreter(b.module).run()

    def test_phis_without_predecessor(self):
        b = _main()
        phi = b._append(Phi(I32, "p"))
        phi.add_incoming(b.current, b.const(0))
        b.ret()
        with pytest.raises(InterpreterError,
                           match="entered block entry with phis without "
                                 "predecessor"):
            Interpreter(b.module).run()

    def test_missing_phi_incoming(self):
        b = _main()
        other, join = b.block("other"), b.block("join")
        b.branch(join)
        b.position(join)
        phi = b._append(Phi(I32, "p"))
        phi.add_incoming(other, b.const(0))
        b.ret()
        with pytest.raises(IRError, match="phi p has no incoming for entry"):
            Interpreter(b.module).run()

    def test_reattach_to_unexpected_continuation(self):
        b = _main()
        body, cont, stray = b.block("body"), b.block("cont"), b.block("x")
        b._append(Detach(body, cont))
        b.position(body)
        b._append(Reattach(stray))
        b.position(cont)
        b.ret()
        with pytest.raises(InterpreterError,
                           match="reattach to unexpected continuation"):
            Interpreter(b.module).run()

    def test_fall_through(self):
        b = _main()
        b.store(1, b.index(b.module.globals["out"], 0))
        with pytest.raises(InterpreterError,
                           match="block entry fell through without "
                                 "terminator"):
            Interpreter(b.module).run()

    def test_failing_op_in_unexecuted_block(self):
        """Decoding never fails: a malformed or unsupported op raises
        only when its block runs."""
        b = _main(("go", BOOL))
        bad, good = b.block("bad"), b.block("good")
        b.cond_branch(b.arg("go"), bad, good)
        b.position(bad)
        b._append(Instruction("frobnicate", [], I32, "f"))
        b._append(Instruction("gep", [b.const(1), b.const(2)], I32, "g"))
        b._append(Instruction("load", [], I32, "l"))
        b.store(b.div(1, 0), b.index(b.module.globals["out"], 0))
        b.ret()
        b.position(good)
        b.store(7, b.index(b.module.globals["out"], 0))
        b.ret()
        mem = Memory(b.module)
        Interpreter(b.module, mem).run(False)
        assert mem.get_array("out") == [7]
        with pytest.raises(InterpreterError, match="unsupported opcode"):
            Interpreter(b.module, mem).run(True)


class TestGarbage:
    def test_run_leaves_no_cyclic_garbage(self):
        """The decoded code holds no reference cycle, so a finished
        interpreter is freed by reference counting alone."""
        module = compile_minic("""
array a: i32[8];
func fact(n: i32) -> i32 {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
func w(i: i32) { a[i] = fact(i); }
func main(n: i32) -> i32 {
  parallel_for (i = 0; i < n; i = i + 1) { w(i); }
  var s: i32 = 0;
  for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
  return s;
}
""")
        mem = Memory(module)
        gc.collect()
        gc.disable()
        try:
            it = Interpreter(module, mem)
            assert it.run(6) == 1 + 1 + 2 + 6 + 24 + 120
            del it
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_reference_is_independent_of_the_simulator():
    """The oracle shares no op evaluators with the simulator it checks."""
    tree = ast.parse(inspect.getsource(interp_module))
    package = interp_module.__name__.rsplit(".", 1)[0].split(".")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            imported.add(".".join(base + [node.module or ""]))
    assert "repro.frontend.ir" in imported
    assert not [name for name in imported if name.startswith(
        ("repro.sim", "repro.core.semantics", "repro.core.lanes"))]
