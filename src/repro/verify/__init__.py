"""Conformance verification: LI fuzzing, minimization, repro bundles.

See :mod:`repro.verify.conformance` for the fuzzer and
:mod:`repro.verify.artifacts` for the on-disk bundle format.
"""

from .artifacts import BUNDLE_SCHEMA, load_bundle, write_bundle  # noqa: F401
from .conformance import (  # noqa: F401
    DEFAULT_FUZZ_PASSES, FUZZ_SCHEMA, CaseResult, ConformanceFuzzer,
    FuzzReport, minimize_plan, replay_bundle)
