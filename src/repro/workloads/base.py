"""Workload definition and registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..util.rng import rng_for
from ..frontend import compile_minic
from ..frontend.interp import Interpreter, Memory
from ..frontend.ir import Module

InitFn = Callable[[Memory], None]


@dataclass
class Workload:
    """One benchmark program with its inputs and golden data."""

    name: str
    category: str          # polybench | cilk | tensorflow | inhouse
    source: str            # MiniC text (the baseline/scalar variant)
    args: Tuple = ()
    init: Optional[InitFn] = None
    check_arrays: Sequence[str] = ()
    fp: bool = False       # Table 2 'F' marker
    tensor: bool = False   # Table 2 '[T]' marker
    #: Alternate sources, e.g. {"tensor": <uses tensor intrinsics>}.
    variants: Dict[str, str] = field(default_factory=dict)
    #: Per-variant argument overrides (defaults to ``args``).
    variant_args: Dict[str, Tuple] = field(default_factory=dict)
    notes: str = ""
    _modules: Dict[str, Module] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def module(self, variant: str = "base") -> Module:
        if variant not in self._modules:
            src = self.source if variant == "base" \
                else self.variants[variant]
            suffix = "" if variant == "base" else f"_{variant}"
            self._modules[variant] = compile_minic(
                src, filename=f"{self.name}{suffix}.mc")
        return self._modules[variant]

    def fresh_memory(self, variant: str = "base") -> Memory:
        mem = Memory(self.module(variant))
        if self.init is not None:
            self.init(mem)
        return mem

    def args_for(self, variant: str = "base") -> Tuple:
        return self.variant_args.get(variant, self.args)

    def golden(self, variant: str = "base") -> Memory:
        """Reference memory image after running the interpreter."""
        mem = self.fresh_memory(variant)
        Interpreter(self.module(variant), mem).run(*self.args_for(variant))
        return mem

    def verify(self, memory: Memory, variant: str = "base") -> None:
        """Raise when ``memory`` disagrees with the golden run."""
        gold = self.golden(variant)
        for array in (self.check_arrays
                      or list(self.module(variant).globals)):
            got = memory.get_array(array)
            want = gold.get_array(array)
            if not _values_close(got, want):
                raise WorkloadError(
                    f"{self.name}: array {array!r} mismatch "
                    f"(got {got[:4]}..., want {want[:4]}...)")


def _values_close(a, b, tol: float = 1e-6) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, tuple):
            if not _values_close(x, y, tol):
                return False
        elif isinstance(x, float) or isinstance(y, float):
            scale = max(abs(x), abs(y), 1.0)
            if abs(x - y) > tol * scale:
                return False
        elif x != y:
            return False
    return True


WORKLOADS: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in WORKLOADS:
        raise WorkloadError(f"duplicate workload {workload.name}")
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


def workload_names(category: Optional[str] = None) -> List[str]:
    return [n for n, w in WORKLOADS.items()
            if category is None or w.category == category]


# Golden-data generators.  ``rng_for(seed)`` with no stream is exactly
# ``random.Random(seed)``, so the sequences below are unchanged from
# the pre-centralization era (golden data is stable across releases).

def seeded_floats(n: int, seed: int, lo: float = -1.0,
                  hi: float = 1.0) -> List[float]:
    rng = rng_for(seed)
    return [round(rng.uniform(lo, hi), 4) for _ in range(n)]


def seeded_ints(n: int, seed: int, lo: int = 0, hi: int = 100) -> List[int]:
    rng = rng_for(seed)
    return [rng.randint(lo, hi) for _ in range(n)]
