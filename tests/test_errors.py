"""Tests for the exception hierarchy (single catchable root, rich
messages)."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or \
                    obj is errors.ReproError, name

    def test_frontend_family(self):
        assert issubclass(errors.LexError, errors.FrontendError)
        assert issubclass(errors.ParseError, errors.FrontendError)
        assert issubclass(errors.LoweringError, errors.FrontendError)

    def test_graph_family(self):
        assert issubclass(errors.ValidationError, errors.GraphError)

    def test_type_mismatch_is_ir_error(self):
        assert issubclass(errors.TypeMismatchError, errors.IRError)


class TestMessages:
    def test_lex_error_position(self):
        err = errors.LexError("bad char", 3, 7)
        assert "3:7" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_position(self):
        assert str(errors.ParseError("oops")) == "oops"

    def test_validation_error_truncates(self):
        violations = [f"problem {i}" for i in range(10)]
        err = errors.ValidationError(violations)
        assert "+5 more" in str(err)
        assert err.violations == violations

    def test_deadlock_error_cycle(self):
        err = errors.DeadlockError(1234, "stuck here")
        assert err.cycle == 1234
        assert "1234" in str(err) and "stuck here" in str(err)


class TestCatchability:
    def test_single_root_catch(self):
        from repro.frontend import compile_minic
        with pytest.raises(errors.ReproError):
            compile_minic("func main( {")  # syntax error
        with pytest.raises(errors.ReproError):
            compile_minic("func main(n: i32) { x = 1; }")  # lowering


class TestExitCodes:
    """Every error family maps to a documented, distinct exit code."""

    def test_family_codes(self):
        cases = [
            (errors.ParseError("x"), 2),
            (errors.LexError("x", 1, 1), 2),
            (errors.TranslationError("x"), 3),
            (errors.ValidationError(["x"]), 3),
            (errors.DeadlockError(9, "x"), 4),
            (errors.WorkloadError("x"), 5),
            (errors.SimulationTimeout(10, 10), 6),
            (errors.WatchdogTimeout(10, 1.0, 0.5), 6),
            (errors.LIViolationError("x"), 7),
            (errors.VerificationError("x"), 7),
            (errors.PassError("x"), 8),
            (errors.ReproError("x"), 2),
        ]
        for exc, want in cases:
            assert errors.exit_code_for(exc) == want, type(exc).__name__

    def test_most_derived_class_wins(self):
        # DeadlockError is a SimulationError; 4 must win over 6.
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert errors.exit_code_for(errors.DeadlockError(1, "x")) == 4

    def test_non_repro_exception_is_internal(self):
        assert errors.exit_code_for(ValueError("x")) == 1


class TestErrorDocument:
    def test_basic_shape(self):
        doc = errors.error_document(errors.ReproError("boom"))
        assert doc == {"error": "ReproError", "message": "boom",
                       "exit_code": 2}

    def test_deadlock_includes_diagnostics(self):
        diags = [{"task": "t", "instances": []}]
        err = errors.DeadlockError(77, "stuck", diags)
        doc = errors.error_document(err)
        assert doc["error"] == "DeadlockError"
        assert doc["exit_code"] == 4
        assert doc["cycle"] == 77
        assert doc["diagnostics"] == diags

    def test_position_fields(self):
        doc = errors.error_document(errors.LexError("bad", 3, 7))
        assert doc["line"] == 3 and doc["column"] == 7

    def test_timeout_fields(self):
        doc = errors.error_document(errors.SimulationTimeout(50, 50))
        assert doc["cycle"] == 50 and doc["max_cycles"] == 50
        doc = errors.error_document(
            errors.WatchdogTimeout(2048, 1.5, 1.0))
        assert doc["elapsed"] == 1.5 and doc["limit"] == 1.0

    def test_li_violation_detail(self):
        err = errors.LIViolationError(
            "diverged", {"memory": {"mismatched_words": 3}})
        doc = errors.error_document(err)
        assert doc["exit_code"] == 7
        assert doc["detail"]["memory"]["mismatched_words"] == 3


class TestRetryClassification:
    def test_error_family_by_name(self):
        assert errors.error_family("WorkerDeath") == "transient"
        assert errors.error_family("WatchdogTimeout") == "transient"
        assert errors.error_family("SupervisorTimeout") == "transient"
        assert errors.error_family("OSError") == "transient"
        assert errors.error_family("DeadlockError") == "deterministic"
        assert errors.error_family("LIViolationError") == \
            "deterministic"
        assert errors.error_family("PassError") == "deterministic"
        assert errors.error_family("SomethingNovel") == "deterministic"

    def test_family_for_is_isinstance_aware(self):
        assert errors.family_for(
            errors.WatchdogTimeout(1, 2.0, 1.0)) == "transient"
        assert errors.family_for(
            errors.DeadlockError(10)) == "deterministic"
        assert errors.family_for(PermissionError("nope")) == \
            "transient"  # an OSError subclass
        assert errors.family_for(ValueError("x")) == "deterministic"

    def test_unexpected_error_document_shape(self):
        try:
            raise KeyError("missing")
        except KeyError as exc:
            doc = errors.unexpected_error_document(exc)
        assert doc["error"] == "KeyError"
        assert doc["exit_code"] == 1
        assert doc["family"] == "deterministic"
        assert any("KeyError" in line for line in doc["traceback"])
        assert len(doc["traceback"]) <= 8

    def test_failure_document_covers_both_kinds(self):
        doc = errors.failure_document(errors.WatchdogTimeout(9, 2.0, 1.0))
        assert doc == dict(errors.error_document(
            errors.WatchdogTimeout(9, 2.0, 1.0)), family="transient")
        try:
            raise KeyError("missing")
        except KeyError as exc:
            doc = errors.failure_document(exc)
        assert doc["family"] == "deterministic"
        assert "traceback" in doc


class TestSweepErrors:
    def test_poison_point_error(self):
        err = errors.PoisonPointError("bad point", index=3, deaths=2)
        assert errors.exit_code_for(err) == 11
        assert err.index == 3 and err.deaths == 2
        assert isinstance(err, errors.ReproError)

    def test_sweep_interrupted_carries_resume_hint(self):
        err = errors.SweepInterrupted("sweep-xyz", 2, 10, "SIGTERM")
        assert errors.exit_code_for(err) == 130
        assert "repro explore --resume sweep-xyz" in str(err)
        assert "2/10" in str(err)
        assert err.signal_name == "SIGTERM"
