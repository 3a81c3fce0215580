"""Functional semantics of compute operations in the uIR simulator.

Both simulation kernels evaluate their compute and fused nodes with
the scalar/tensor op definitions in this module: the dense kernel's
node sims call :func:`eval_compute`, and the compiled kernel's steps
call the evaluators :func:`specialize_compute_pos` resolves once per
node.  The reference interpreter (:mod:`repro.frontend.interp`) keeps
its own op tables and imports nothing from here, so checking a
simulation against it compares two independent definitions of every
op, and "transformations preserve behavior" is checked, not assumed.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from ..errors import SimulationError
from ..types import BoolType, IntType, TensorType, Type
from .lanes import LaneValues, lane_row


def eval_compute(op: str, vals: Sequence, result_type: Type):
    """Evaluate pure operation ``op`` over concrete values.

    Lane-indexed operands (batched simulation) are intercepted before
    the scalar arms: the coercions below (``int``, ``bool``-via-
    ``if``, raw ``==``) are *control* conversions on a
    :class:`~repro.core.lanes.LaneValues` and would either demand
    lane uniformity payload data does not have, or (for the bare
    comparisons) silently fall back to identity — so divergent
    payloads must be mapped per lane instead.
    """
    for v in vals:
        if type(v) is LaneValues:
            return _eval_compute_lanes(op, vals, result_type)
    if op == "add":
        return _wrap(int(vals[0]) + int(vals[1]), result_type)
    if op == "sub":
        return _wrap(int(vals[0]) - int(vals[1]), result_type)
    if op == "mul":
        return _wrap(int(vals[0]) * int(vals[1]), result_type)
    if op == "div":
        return _wrap(_int_div(int(vals[0]), int(vals[1])), result_type)
    if op == "rem":
        a, b = int(vals[0]), int(vals[1])
        return _wrap(a - _int_div(a, b) * b, result_type)
    if op == "and":
        return _wrap(int(vals[0]) & int(vals[1]), result_type)
    if op == "or":
        return _wrap(int(vals[0]) | int(vals[1]), result_type)
    if op == "xor":
        return _wrap(int(vals[0]) ^ int(vals[1]), result_type)
    if op == "shl":
        return _wrap(int(vals[0]) << (int(vals[1]) & 31), result_type)
    if op == "lshr":
        width = result_type.bits or 32
        return _wrap((int(vals[0]) & ((1 << width) - 1))
                     >> (int(vals[1]) & 31), result_type)
    if op == "ashr":
        return _wrap(int(vals[0]) >> (int(vals[1]) & 31), result_type)
    if op == "fadd":
        return float(vals[0]) + float(vals[1])
    if op == "fsub":
        return float(vals[0]) - float(vals[1])
    if op == "fmul":
        return float(vals[0]) * float(vals[1])
    if op == "fdiv":
        if float(vals[1]) == 0.0:
            raise SimulationError("float division by zero")
        return float(vals[0]) / float(vals[1])
    if op in ("eq", "ne", "lt", "le", "gt", "ge"):
        a, b = vals
        return {"eq": a == b, "ne": a != b, "lt": a < b,
                "le": a <= b, "gt": a > b, "ge": a >= b}[op]
    if op == "select":
        return vals[1] if vals[0] else vals[2]
    if op == "neg":
        return _wrap(-int(vals[0]), result_type)
    if op == "fneg":
        return -float(vals[0])
    if op == "not":
        return _wrap(~int(vals[0]), result_type)
    if op == "abs":
        return abs(vals[0])
    if op == "exp":
        return math.exp(float(vals[0]))
    if op == "sqrt":
        return math.sqrt(float(vals[0]))
    if op == "itof":
        return float(vals[0])
    if op == "ftoi":
        return int(vals[0])
    if op == "gep":
        # vals: (base_addr, index); scaling handled by the caller, who
        # passes the element size in words as vals[2].
        scale = int(vals[2]) if len(vals) > 2 else 1
        return int(vals[0]) + int(vals[1]) * scale
    if op == "tadd":
        return tuple(x + y for x, y in zip(vals[0], vals[1]))
    if op == "tsub":
        return tuple(x - y for x, y in zip(vals[0], vals[1]))
    if op == "tmul":
        return tensor_matmul(vals[0], vals[1], result_type)
    if op == "trelu":
        return tuple(v if v > 0 else 0.0 for v in vals[0])
    raise SimulationError(f"no semantics for op {op!r}")


def _eval_compute_lanes(op: str, vals: Sequence, result_type: Type):
    """Lane-wise :func:`eval_compute`: apply the identical scalar
    semantics to each lane's operand row (broadcasting scalar
    operands), which is by definition what each lane's independent
    run computes."""
    n = 0
    for v in vals:
        if type(v) is LaneValues:
            n = len(v.lanes)
            break
    return LaneValues([eval_compute(op, lane_row(vals, i), result_type)
                       for i in range(n)])


def specialize_compute_pos(op: str, result_type: Type,
                           gep_scale: int = 1):
    """Pre-resolve ``eval_compute`` dispatch for one (op, type) pair.

    Returns ``(arity, f)`` where ``f`` takes its operands
    *positionally* and is bit-identical to
    ``eval_compute(op, vals, result_type)`` (with ``gep`` scaling
    folded in, matching the caller-appended ``vals[2]`` convention).
    The op string comparison chain, type isinstance tests, and integer
    mask computation all happen once here instead of once per fire —
    the compiled simulation kernel's per-node evaluator (positional so
    its hot call sites need no operand-list allocation).
    """
    if isinstance(result_type, IntType):
        wrap = result_type.wrapper()
    elif isinstance(result_type, BoolType):
        wrap = lambda v: v & 1          # noqa: E731 (mirrors _wrap)
    else:
        wrap = int
    if op == "add":
        return 2, lambda a, b: wrap(int(a) + int(b))
    if op == "sub":
        return 2, lambda a, b: wrap(int(a) - int(b))
    if op == "mul":
        return 2, lambda a, b: wrap(int(a) * int(b))
    if op == "div":
        return 2, lambda a, b: wrap(_int_div(int(a), int(b)))

    if op == "rem":
        def _rem(a, b):
            a, b = int(a), int(b)
            return wrap(a - _int_div(a, b) * b)
        return 2, _rem
    if op == "and":
        return 2, lambda a, b: wrap(int(a) & int(b))
    if op == "or":
        return 2, lambda a, b: wrap(int(a) | int(b))
    if op == "xor":
        return 2, lambda a, b: wrap(int(a) ^ int(b))
    if op == "shl":
        return 2, lambda a, b: wrap(int(a) << (int(b) & 31))
    if op == "lshr":
        lmask = (1 << (result_type.bits or 32)) - 1
        return 2, lambda a, b: wrap((int(a) & lmask) >> (int(b) & 31))
    if op == "ashr":
        return 2, lambda a, b: wrap(int(a) >> (int(b) & 31))
    if op == "fadd":
        return 2, lambda a, b: float(a) + float(b)
    if op == "fsub":
        return 2, lambda a, b: float(a) - float(b)
    if op == "fmul":
        return 2, lambda a, b: float(a) * float(b)

    if op == "fdiv":
        def _fdiv(a, b):
            if float(b) == 0.0:
                raise SimulationError("float division by zero")
            return float(a) / float(b)
        return 2, _fdiv
    if op == "eq":
        return 2, lambda a, b: a == b
    if op == "ne":
        return 2, lambda a, b: a != b
    if op == "lt":
        return 2, lambda a, b: a < b
    if op == "le":
        return 2, lambda a, b: a <= b
    if op == "gt":
        return 2, lambda a, b: a > b
    if op == "ge":
        return 2, lambda a, b: a >= b
    if op == "select":
        return 3, lambda c, a, b: a if c else b
    if op == "neg":
        return 1, lambda a: wrap(-int(a))
    if op == "fneg":
        return 1, lambda a: -float(a)
    if op == "not":
        return 1, lambda a: wrap(~int(a))
    if op == "abs":
        return 1, abs
    if op == "exp":
        return 1, lambda a: math.exp(float(a))
    if op == "sqrt":
        return 1, lambda a: math.sqrt(float(a))
    if op == "itof":
        return 1, float
    if op == "ftoi":
        return 1, int
    if op == "gep":
        scale = int(gep_scale)
        return 2, lambda a, b: int(a) + int(b) * scale
    if op == "tadd":
        return 2, lambda a, b: tuple(x + y for x, y in zip(a, b))
    if op == "tsub":
        return 2, lambda a, b: tuple(x - y for x, y in zip(a, b))
    if op == "tmul":
        return 2, lambda a, b: tensor_matmul(a, b, result_type)
    if op == "trelu":
        return 1, lambda a: tuple(v if v > 0 else 0.0 for v in a)
    raise SimulationError(f"no semantics for op {op!r}")


def specialize_compute(op: str, result_type: Type, gep_scale: int = 1):
    """List-operand form of :func:`specialize_compute_pos` (used by the
    compiled kernel's generic compute step and by the fused-region
    expressions it does not index directly)."""
    arity, f = specialize_compute_pos(op, result_type, gep_scale)
    if arity == 1:
        return lambda vals: f(vals[0])
    if arity == 2:
        return lambda vals: f(vals[0], vals[1])
    return lambda vals: f(vals[0], vals[1], vals[2])


def tensor_matmul(a: Tuple, b: Tuple, t: TensorType) -> Tuple:
    """rows x cols tile matrix product (square tiles)."""
    n, m = t.rows, t.cols
    out = []
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(m):
                acc += a[i * m + k] * b[k * m + j]
            out.append(acc)
    return tuple(out)


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("integer division by zero")
    q = a // b
    if (a < 0) != (b < 0) and q * b != a:
        q += 1  # round toward zero, C-style
    return q


def _wrap(value: int, t: Type):
    if isinstance(t, IntType):
        return t.wrap(int(value))
    if isinstance(t, BoolType):
        return int(value) & 1
    return int(value)


def poison_value(t: Type):
    """The value a predicated-off node forwards (paper section 3.5)."""
    if isinstance(t, TensorType):
        return tuple(0.0 for _ in range(t.elements))
    if t.is_float:
        return 0.0
    return 0
