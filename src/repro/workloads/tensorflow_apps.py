"""Tensorflow workloads (paper Table 2): CONV, DENSE8, DENSE16,
SOFTM8, SOFTM16 — small inference kernels as the paper's LeFlow-style
Tensorflow front-end would emit them."""

from __future__ import annotations

from .base import Workload, register, seeded_floats

# ---------------------------------------------------------------------------
# CONV: 2D valid convolution, 3x3 kernel
# ---------------------------------------------------------------------------

CONV_IN = 10
CONV_K = 3
CONV_OUT = CONV_IN - CONV_K + 1

CONV_SRC = f"""
array image: f32[{CONV_IN * CONV_IN}];
array kernel: f32[{CONV_K * CONV_K}];
array feat: f32[{CONV_OUT * CONV_OUT}];

func main(n: i32, k: i32, m: i32) {{
  for (r = 0; r < m; r = r + 1) {{
    for (c = 0; c < m; c = c + 1) {{
      var acc: f32 = 0.0;
      for (kr = 0; kr < k; kr = kr + 1) {{
        for (kc = 0; kc < k; kc = kc + 1) {{
          acc = acc + image[(r + kr) * n + c + kc] * kernel[kr * k + kc];
        }}
      }}
      feat[r * m + c] = acc;
    }}
  }}
}}
"""


def _init_conv(mem):
    mem.set_array("image", seeded_floats(CONV_IN * CONV_IN, 101))
    mem.set_array("kernel", seeded_floats(CONV_K * CONV_K, 102))


register(Workload(
    name="conv", category="tensorflow", source=CONV_SRC,
    args=(CONV_IN, CONV_K, CONV_OUT), init=_init_conv,
    check_arrays=["feat"], fp=True,
    notes="4-deep loop nest, sliding-window reuse"))


# ---------------------------------------------------------------------------
# DENSE: fully connected layer  out = relu(W x in + b)
# ---------------------------------------------------------------------------

def _dense_src(n: int) -> str:
    return f"""
array W: f32[{n * n}];
array inp: f32[{n}];
array bias: f32[{n}];
array outp: f32[{n}];

func main(n: i32) {{
  for (i = 0; i < n; i = i + 1) {{
    var acc: f32 = bias[i];
    for (j = 0; j < n; j = j + 1) {{
      acc = acc + W[i * n + j] * inp[j];
    }}
    var r: f32 = 0.0;
    if (acc > 0.0) {{ r = acc; }}
    outp[i] = r;
  }}
}}
"""


def _init_dense(n, seed):
    def init(mem):
        mem.set_array("W", seeded_floats(n * n, seed))
        mem.set_array("inp", seeded_floats(n, seed + 1))
        mem.set_array("bias", seeded_floats(n, seed + 2))
    return init


register(Workload(
    name="dense8", category="tensorflow", source=_dense_src(8),
    args=(8,), init=_init_dense(8, 111), check_arrays=["outp"],
    fp=True, notes="8-wide fully connected layer + ReLU"))

register(Workload(
    name="dense16", category="tensorflow", source=_dense_src(16),
    args=(16,), init=_init_dense(16, 121), check_arrays=["outp"],
    fp=True, notes="16-wide fully connected layer + ReLU"))


# ---------------------------------------------------------------------------
# SOFTM: numerically-stable softmax
# ---------------------------------------------------------------------------

def _softmax_src(n: int) -> str:
    return f"""
array xs: f32[{n}];
array probs: f32[{n}];

func main(n: i32) {{
  var mx: f32 = xs[0];
  for (i = 1; i < n; i = i + 1) {{
    var v: f32 = xs[i];
    if (v > mx) {{ mx = v; }}
  }}
  var denom: f32 = 0.0;
  for (j = 0; j < n; j = j + 1) {{
    var e: f32 = exp(xs[j] - mx);
    probs[j] = e;
    denom = denom + e;
  }}
  for (k = 0; k < n; k = k + 1) {{
    probs[k] = probs[k] / denom;
  }}
}}
"""


def _init_softmax(n, seed):
    def init(mem):
        mem.set_array("xs", seeded_floats(n, seed, -3.0, 3.0))
    return init


register(Workload(
    name="softm8", category="tensorflow", source=_softmax_src(8),
    args=(8,), init=_init_softmax(8, 131), check_arrays=["probs"],
    fp=True, notes="max-reduce, exp, sum-reduce, normalize"))

register(Workload(
    name="softm16", category="tensorflow", source=_softmax_src(16),
    args=(16,), init=_init_softmax(16, 141), check_arrays=["probs"],
    fp=True, notes="16-wide softmax"))
