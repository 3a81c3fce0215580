"""Deterministic RNG plumbing shared by the whole repo.

One user-facing ``--seed`` must reproduce *everything* derived from
randomness — memory images, workload data, fault plans, fuzz verdicts —
across processes and platforms.  Python's builtin ``hash`` is salted
per process, so all derivation here goes through SHA-256 of the
``repr`` of the key components, which is stable everywhere.

Two layers:

* **streams** — :func:`rng_for` hands out an independent
  ``random.Random`` per named stream of one root seed, so consuming
  numbers for (say) a fault plan can never shift the sequence used to
  seed memory contents.  ``rng_for(seed)`` with no stream labels is
  exactly ``random.Random(seed)``, keeping every pre-existing golden
  data set bit-identical.
* **sites** — :func:`site_fraction` / :func:`site_int` give O(1)
  order-independent draws keyed by an arbitrary tuple (task name, node
  index, cycle...).  The fault injector uses these so a per-site
  decision does not depend on the order sites are visited in.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

_MASK64 = (1 << 64) - 1


def _digest(*components) -> bytes:
    payload = "\x1f".join(repr(c) for c in components)
    return hashlib.sha256(payload.encode("utf-8")).digest()


def derive_seed(*components) -> int:
    """Stable 64-bit seed derived from arbitrary key components."""
    return int.from_bytes(_digest(*components)[:8], "big") & _MASK64


def rng_for(seed: Optional[int], *stream) -> random.Random:
    """Independent ``random.Random`` for one stream of a root seed.

    With no stream labels this is exactly ``random.Random(seed)`` —
    the historical behavior every seeded golden data set was generated
    with — so centralizing call sites on this helper changes nothing.
    """
    if not stream:
        return random.Random(seed)
    return random.Random(derive_seed("stream", seed, *stream))


def site_fraction(seed: Optional[int], *site) -> float:
    """Uniform [0, 1) draw keyed by (seed, *site); order-independent."""
    return derive_seed("site", seed, *site) / float(1 << 64)


def site_int(seed: Optional[int], lo: int, hi: int, *site) -> int:
    """Uniform integer in [lo, hi] keyed by (seed, *site)."""
    if hi <= lo:
        return lo
    return lo + derive_seed("site-int", seed, *site) % (hi - lo + 1)


def seed_memory(memory, seed: Optional[int]) -> None:
    """Fill every global array of ``memory`` pseudo-randomly.

    Behind ``repro simulate --seed`` and an evaluation request's
    ``seed`` (every lane of a batch), so one seed reproduces memory
    contents end-to-end.  The sequence is the historical
    ``random.Random(seed)`` one.
    """
    if seed is None:
        return
    rng = rng_for(seed)
    for name, glob in memory.module.globals.items():
        base = memory.base[name]
        for w in range(glob.size_words):
            if glob.elem.is_float or glob.elem.is_tensor:
                memory.write(base + w, round(rng.uniform(-2, 2), 3))
            else:
                memory.write(base + w, rng.randint(-50, 50))
