"""The master-pattern lexer against a character-stepping reference.

``_reference_tokenize`` is the lexer PsimC had before ``tokenize`` became
one compiled regex: it walks the source a character at a time and tries
each operator with ``startswith``.  The regex lexer must produce the same
``(kind, text, line, col)`` stream on every benchsuite source and on
fuzzer output, and the same ``LexError`` text on malformed input.
"""

import pytest

from repro.benchsuite.fuzzgen import generate_kernel
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.frontend.lexer import _OPERATORS, KEYWORDS, LexError, tokenize


class _ReferenceError(Exception):
    pass


def _reference_tokenize(source):
    tokens = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise _ReferenceError(f"unterminated block comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append((kind, text, line, start - line_start + 1))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < n and source[i] in "0123456789abcdefABCDEF":
                    i += 1
            else:
                while i < n and source[i].isdigit():
                    i += 1
                if i < n and source[i] == ".":
                    is_float = True
                    i += 1
                    while i < n and source[i].isdigit():
                        i += 1
                if i < n and source[i] in "eE":
                    is_float = True
                    i += 1
                    if i < n and source[i] in "+-":
                        i += 1
                    while i < n and source[i].isdigit():
                        i += 1
            while i < n and source[i] in "fFuUlL":
                if source[i] in "fF":
                    is_float = True
                i += 1
            tokens.append(("float" if is_float else "int", source[start:i],
                           line, start - line_start + 1))
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(("op", op, line, i - line_start + 1))
                i += len(op)
                break
        else:
            raise _ReferenceError(
                f"unexpected character {ch!r} at line {line}, col {i - line_start + 1}")
    tokens.append(("eof", "", line, i - line_start + 1))
    return tokens


def _both(source):
    """(reference outcome, regex outcome): a token list or the error text."""
    try:
        want = _reference_tokenize(source)
    except _ReferenceError as exc:
        want = str(exc)
    try:
        got = [tuple(token) for token in tokenize(source)]
    except LexError as exc:
        got = exc.diagnostic.message
    return want, got


@pytest.mark.parametrize("spec", list(FIG4) + list(FIG5), ids=lambda s: s.name)
def test_benchsuite_token_streams_match_reference(spec):
    want, got = _both(spec.psim_src)
    assert isinstance(want, list) and got == want


def test_fuzzgen_token_streams_match_reference():
    for seed in range(240):
        want, got = _both(generate_kernel(seed).source)
        assert isinstance(want, list) and got == want, seed


@pytest.mark.parametrize("source", [
    # Literals: a hex literal is a float only through an f after u/l.
    "0xFF 0x1f 0X1e5 0x 0xu 0x1uf 0x1lF 0xg",
    "1 1u 1ul 1lf 1f 1. .5 1.e5 1e 1e+ 1E-5 1..2 1u.2 123abc 08",
    # Operators longest-first, comments before '/'.
    "a<<=b>>=c==d!=e<=f>=g&&h||i<<j>>k+=l-=m*=n/=o%=p&=q|=r^=s++t--",
    "a/b/=c//x\n/*y*/d",
    # A block comment's newlines count lines; columns keep counting from
    # the line it opened on.
    "a /* one\ntwo\nthree */ b\n  c",
    " \t\r\n\n  x\r\n",
    "",
    # Unicode letters and decimal digits behave as str.isalpha/isdigit.
    "café = ٣;",
])
def test_edge_token_streams_match_reference(source):
    want, got = _both(source)
    assert got == want


@pytest.mark.parametrize("source", [
    "a ` b",
    "x = y @ z;",
    "\n\n   #define",
    "a /* never closed",
    "a /*/ b",
    "x\x0cy",
    "a . b",
    "/* one\ntwo */ $",
])
def test_lex_error_text_matches_reference(source):
    want, got = _both(source)
    assert isinstance(want, str) and got == want
