"""``repro.diagnostics``: the structured-error contract every stage obeys."""

import pytest

from repro.diagnostics import (
    CompileError,
    Diagnostic,
    ExecutionError,
    ReproError,
    Severity,
)


def test_format_is_message_plus_location_suffix():
    diag = Diagnostic(
        "binop type mismatch",
        stage="verifier",
        pass_name="cse",
        function="kernel",
        block="entry",
        instruction="x",
    )
    text = diag.format()
    assert text.startswith("binop type mismatch\n")
    assert "[stage=verifier, pass=cse, function=@kernel, " \
           "block=entry, instr=%x]" in text


def test_format_without_location_is_just_the_message():
    assert Diagnostic("plain").format() == "plain"


def test_as_dict_round_trips_every_field():
    diag = Diagnostic(
        "boom", severity=Severity.WARNING, stage="smt",
        detail={"rule": "and_low_mask"},
    )
    d = diag.as_dict()
    assert d["severity"] == "warning"
    assert d["message"] == "boom"
    assert d["stage"] == "smt"
    assert d["detail"] == {"rule": "and_low_mask"}


def test_error_builds_diagnostic_with_default_stage():
    err = ExecutionError("trap")
    assert err.diagnostic.stage == "vm"
    assert str(err) == "trap\n  [stage=vm]"
    # explicit stage wins over the class default
    assert CompileError("x", stage="frontend").diagnostic.stage == "frontend"


def test_existing_error_classes_are_rebased_onto_the_roots():
    from repro.frontend.lexer import LexError
    from repro.frontend.parser import ParseError
    from repro.frontend.sema import SemaError
    from repro.ir.verifier import VerificationError
    from repro.vectorizer.scalarize import ScalarizeError
    from repro.vectorizer.smt import SMTError
    from repro.vectorizer.transform import VectorizeError
    from repro.vm.memory import MemoryError_
    from repro.vm.ops import VMTrap

    for cls in (LexError, ParseError, SemaError, VerificationError,
                ScalarizeError, SMTError, VectorizeError):
        assert issubclass(cls, CompileError), cls
    for cls in (MemoryError_, VMTrap):
        assert issubclass(cls, ExecutionError), cls
    # Historical builtin bases survive the rebase (old call sites rely
    # on them) and the structured __init__ still runs.
    assert issubclass(LexError, SyntaxError)
    assert issubclass(ParseError, SyntaxError)
    assert issubclass(SemaError, TypeError)
    assert SemaError(3, "bad cast").diagnostic.message == "line 3: bad cast"


def test_passing_a_prebuilt_diagnostic_uses_it_verbatim():
    diag = Diagnostic("reused", stage="passes", pass_name="dce")
    err = ReproError(diagnostic=diag)
    assert err.diagnostic is diag
    assert "pass=dce" in str(err)


def test_catching_the_roots_spans_the_pipeline():
    from repro.driver import compile_parsimony

    with pytest.raises(CompileError):
        compile_parsimony("void kernel( {", module_name="syntaxerr")


# -- pickling (errors cross process boundaries) --------------------------------


def test_pickle_round_trip_preserves_provenance():
    import pickle

    err = ExecutionError(
        "store out of bounds",
        stage="vm",
        function="kernel",
        block="body",
        instruction="st",
        detail={"addr": 123, "lane": 2},
    )
    clone = pickle.loads(pickle.dumps(err))
    assert type(clone) is ExecutionError
    assert str(clone) == str(err)
    diag = clone.diagnostic
    assert diag.stage == "vm"
    assert diag.function == "kernel"
    assert diag.block == "body"
    assert diag.instruction == "st"
    assert diag.detail == {"addr": 123, "lane": 2}


def test_pickle_round_trip_preserves_cause_chain():
    import pickle

    try:
        try:
            raise ValueError("root cause")
        except ValueError as inner:
            raise ExecutionError(
                "trap while replaying", stage="vm", pass_name="batch"
            ) from inner
    except ExecutionError as outer:
        err = outer
    clone = pickle.loads(pickle.dumps(err))
    assert clone.diagnostic.pass_name == "batch"
    assert isinstance(clone.__cause__, ValueError)
    assert str(clone.__cause__) == "root cause"
    assert clone.__suppress_context__


def test_pickle_round_trip_builtin_mixin_subclasses():
    """Subclasses rebasing onto builtin exceptions (SyntaxError/TypeError
    mixins) have incompatible __init__ signatures; the restore path must
    bypass them."""
    import pickle

    from repro.frontend.lexer import LexError
    from repro.frontend.sema import SemaError

    lex = pickle.loads(pickle.dumps(LexError("bad token", stage="lexer")))
    assert isinstance(lex, SyntaxError)
    assert lex.diagnostic.stage == "lexer"

    sema = pickle.loads(pickle.dumps(SemaError(3, "bad cast")))
    assert isinstance(sema, TypeError)
    assert sema.diagnostic.message == "line 3: bad cast"
