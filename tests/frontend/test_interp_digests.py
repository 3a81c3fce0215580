"""Pins the reference interpreter's outputs on every built-in workload.

For each of the 19 workloads and the tensor variants, digests of the
final memory words, the returned value and the ``block_hook`` trace
(as ``function:block`` names) must equal the ones recorded in
``golden/interp_digests.json``.  They were recorded with the
tree-walking interpreter, so a change to how the interpreter executes
cannot move what it computes or reports to the HLS and ARM models
without showing up here.

Re-record with ``PYTHONPATH=src python tests/frontend/test_interp_digests.py``.
"""

import hashlib
import json
import os

import pytest

from repro.frontend.interp import Interpreter
from repro.workloads import WORKLOADS

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "interp_digests.json")

#: One case per workload, plus one per named variant.
CASES = [name for name in WORKLOADS] + [
    f"{name}/{variant}" for name, w in WORKLOADS.items()
    for variant in w.variants]

def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def interp_digests(case: str) -> dict:
    name, _, variant = case.partition("/")
    w = WORKLOADS[name]
    variant = variant or "base"
    mem = w.fresh_memory(variant)
    trace = []
    it = Interpreter(
        w.module(variant), mem,
        block_hook=lambda b: trace.append(f"{b.function.name}:{b.name}"))
    returned = it.run(*w.args_for(variant))
    return {
        "memory": _digest(mem.words),
        "returned": _digest(returned),
        "trace": _digest(trace),
    }


def _load() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def test_digests_cover_every_case():
    assert sorted(_load()) == sorted(CASES)
    assert len(CASES) == 22


@pytest.mark.parametrize("case", CASES)
def test_interpreter_matches_digests(case):
    assert interp_digests(case) == _load()[case]


if __name__ == "__main__":
    digests = {case: interp_digests(case) for case in sorted(CASES)}
    with open(DIGESTS_PATH, "w") as _fh:
        json.dump(digests, _fh, indent=1, sort_keys=True)
        _fh.write("\n")
