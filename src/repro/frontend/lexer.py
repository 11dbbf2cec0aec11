"""Lexer for PsimC: one compiled master pattern, one match per token.

Literal rules: a ``0x``/``0X`` prefix makes a hex integer (digits
``[0-9a-fA-F]*``); otherwise decimal digits with an optional ``.fraction``
and ``e[+-]exponent`` (either makes a float).  Both take any run of
``fFuUlL`` suffixes, and an ``f``/``F`` among them makes a float — since
hex digits swallow ``f``, only after a ``u``/``l`` in a hex literal.
Identifiers are ``\\w`` runs (``str.isalnum`` or ``_``) that do not start
with a decimal digit, so a character that is numeric but not decimal
(``²``, ``½``) starts an identifier — an undeclared one, reported by
sema — rather than a literal no parser could convert.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..diagnostics import CompileError

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    """void bool i8 u8 i16 u16 i32 u32 i64 u64 f32 f64
       if else while for return break continue true false
       psim gang_size num_threads num_gangs""".split()
)

# Multi-character operators first (longest match wins).
_OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";", "?", ":",
]

# Each alternative is one capture group, so ``match.lastindex`` names the
# token class; blanks before a token are skipped inside the same match.
# A literal is an ``int`` only when nothing after its digits (and its
# ``u``/``l`` suffixes) could make it a float: the lookaheads pin each run
# at its longest, so no backtracking can split it.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"                                                  # 1 newline
    r"|([^\W\d]\w*)"                                         # 2 ident/keyword
    r"|(0[xX][0-9a-fA-F]*(?![0-9a-fA-F])[uUlL]*(?![fFuUlL]))"  # 3 hex int
    r"|(0[xX][0-9a-fA-F]*[fFuUlL]*)"                         # 4 hex float
    r"|(\d+(?![\d.eE])[uUlL]*(?![fFuUlL]))"                  # 5 decimal int
    r"|((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?[fFuUlL]*)"  # 6 decimal float
    r"|(//[^\n]*)"                                           # 7 line comment
    r"|(/\*(?s:.*?)\*/)"                                     # 8 block comment
    r"|(/\*)"                                                # 9 unterminated
    r"|(" + "|".join(map(re.escape, _OPERATORS)) + r")"      # 10 operator
    r"|(\Z)"                                                 # 11 end (blanks)
    r"|((?s:.))"                                             # 12 anything else
    r")"
)
_KIND = (None, None, None, "int", "float", "int", "float", None, None, None, "op")


class Token(NamedTuple):
    kind: str  # 'ident' | 'keyword' | 'int' | 'float' | 'op' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


class LexError(CompileError, SyntaxError):
    """Raised on an unrecognized character or malformed literal."""

    default_stage = "frontend"


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        start = match.start(group)
        if group == 1:
            line += 1
            line_start = start + 1
        elif group == 2:
            text = match[2]
            append(Token("keyword" if text in KEYWORDS else "ident", text,
                         line, start - line_start + 1))
        elif group <= 6 or group == 10:
            append(Token(_KIND[group], match[group], line, start - line_start + 1))
        elif group == 8:
            # Columns keep counting from the line the comment opened on.
            line += match[8].count("\n")
        elif group == 9:
            raise LexError(f"unterminated block comment at line {line}")
        elif group == 12:
            raise LexError(
                f"unexpected character {match[12]!r} at line {line}, "
                f"col {start - line_start + 1}"
            )
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
