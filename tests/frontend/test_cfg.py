"""Tests for CFG analyses: dominators, loops, induction recognition."""

import pytest

from repro.frontend import compile_minic
from repro.frontend.builder import IRBuilder
from repro.frontend import cfg
from repro.frontend.ir import BasicBlock
from repro.types import I32


def loops_of(source):
    module = compile_minic(source)
    return module.main, cfg.find_loops(module.main)


SIMPLE_LOOP = """
array a: i32[8];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = i; }
}
"""

NESTED_LOOPS = """
array a: i32[64];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      a[i * n + j] = i + j;
    }
  }
}
"""


class TestRPOAndDominators:
    def test_rpo_starts_at_entry(self):
        fn, _ = loops_of(SIMPLE_LOOP)
        order = cfg.reverse_post_order(fn)
        assert order[0] is fn.entry

    def test_rpo_covers_reachable(self):
        fn, _ = loops_of(NESTED_LOOPS)
        assert len(cfg.reverse_post_order(fn)) == len(fn.blocks)

    def test_entry_dominates_all(self):
        fn, _ = loops_of(NESTED_LOOPS)
        idom = cfg.dominators(fn)
        for block in fn.blocks:
            assert cfg.dominates(idom, fn.entry, block)

    def test_header_dominates_body(self):
        fn, loops = loops_of(SIMPLE_LOOP)
        idom = cfg.dominators(fn)
        loop = loops[0]
        for block in loop.blocks:
            assert cfg.dominates(idom, loop.header, block)

    def test_body_does_not_dominate_header(self):
        fn, loops = loops_of(SIMPLE_LOOP)
        idom = cfg.dominators(fn)
        loop = loops[0]
        body = next(b for b in loop.blocks if b is not loop.header)
        assert not cfg.dominates(idom, body, loop.header)


class TestLoops:
    def test_single_loop_found(self):
        _, loops = loops_of(SIMPLE_LOOP)
        assert len(loops) == 1

    def test_nested_loops_found(self):
        _, loops = loops_of(NESTED_LOOPS)
        assert len(loops) == 2

    def test_nesting_links(self):
        _, loops = loops_of(NESTED_LOOPS)
        inner = min(loops, key=lambda l: len(l.blocks))
        outer = max(loops, key=lambda l: len(l.blocks))
        assert inner.parent is outer
        assert inner in outer.children
        assert inner.depth == 2 and outer.depth == 1

    def test_top_level(self):
        _, loops = loops_of(NESTED_LOOPS)
        tops = cfg.top_level_loops(loops)
        assert len(tops) == 1 and tops[0].parent is None

    def test_exit_blocks(self):
        _, loops = loops_of(SIMPLE_LOOP)
        exits = loops[0].exit_blocks()
        assert len(exits) == 1
        assert exits[0] not in loops[0].blocks

    def test_loop_of_block_innermost(self):
        fn, loops = loops_of(NESTED_LOOPS)
        inner = min(loops, key=lambda l: len(l.blocks))
        body = next(b for b in inner.blocks if b is not inner.header)
        assert cfg.loop_of_block(loops, body) is inner

    def test_loop_order_ignores_block_hashes(self, monkeypatch):
        # Loop order becomes task order in the built circuit, so it
        # must not follow the iteration order of a set of blocks: that
        # follows their hashes, i.e. their addresses in this process.
        source = """
array a: i32[8];
array b: i32[8];
array c: i32[8];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { a[i] = i; }
  for (j = 0; j < n; j = j + 1) { b[j] = j; }
  for (k = 0; k < n; k = k + 1) { c[k] = k; }
}
"""

        def headers():
            module = compile_minic(source)
            return [loop.header.name
                    for loop in cfg.find_loops(module.main)]

        first = headers()
        assert len(first) == 3
        for salt in range(5):
            monkeypatch.setattr(BasicBlock, "__hash__",
                                lambda self, s=salt: hash((s, self.name)))
            assert headers() == first

    def test_no_loops_in_straight_line(self):
        module = compile_minic(
            "array a: i32[1]; func main(n: i32) { a[0] = n; }")
        assert cfg.find_loops(module.main) == []


class TestInduction:
    def test_counted_loop_recognized(self):
        _, loops = loops_of(SIMPLE_LOOP)
        info = cfg.recognize_induction(loops[0])
        assert info is not None
        assert info.phi.name.startswith("i")

    def test_step_and_bound_extraction(self):
        module = compile_minic("""
array a: i32[32];
func main(n: i32) {
  for (i = 2; i < n; i = i + 3) { a[i] = 1; }
}
""")
        loop = cfg.find_loops(module.main)[0]
        info = cfg.recognize_induction(loop)
        assert info.start.value == 2
        assert info.step.value == 3
        assert info.bound.name == "n"

    def test_while_loop_not_counted(self):
        module = compile_minic("""
array a: i32[4];
func main(n: i32) {
  var k: i32 = 0;
  while (k * k < n) { k = k + 1; }
  a[0] = k;
}
""")
        loop = cfg.find_loops(module.main)[0]
        assert cfg.recognize_induction(loop) is None

    def test_variable_step_is_counted(self):
        module = compile_minic("""
array a: i32[64];
func main(n: i32, s: i32) {
  for (k = 0; k < n; k = k + s) { a[k] = 1; }
}
""")
        loop = cfg.find_loops(module.main)[0]
        info = cfg.recognize_induction(loop)
        assert info is not None
        assert info.step.name == "s"


class TestReducibility:
    def test_structured_code_reducible(self):
        fn, _ = loops_of(NESTED_LOOPS)
        assert not cfg.has_irreducible_edges(fn)
        cfg.check_reducible(fn)  # must not raise
