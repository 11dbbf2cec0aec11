"""Recursive-descent parser for PsimC."""

from __future__ import annotations

from typing import List, Optional

from ..diagnostics import CompileError
from . import ast
from .ctypes import CType, ptr, type_by_name
from .lexer import Token, tokenize

__all__ = ["ParseError", "MAX_NESTING", "parse_program", "parse_expression"]

#: The nesting budget: how many parser levels one path through the source
#: may open at once — a level per nested statement (block, ``if``/``else``
#: arm, loop body, ``psim`` region), per ``else``-side ternary, per
#: operator-precedence step and per unary/cast/primary operand (so a pair
#: of parentheses, a subscript or a call argument costs two), plus one
#: per operator of a left-associative chain, which deepens the tree
#: without recursing here.  Every later stage recurses over the tree the
#: parser built, so the budget is what keeps hostile nesting a
#: :class:`ParseError` with a line instead of a ``RecursionError`` from
#: wherever the interpreter stack happened to run out.  Hand-written
#: kernels stay below 40.
MAX_NESTING = 200


class ParseError(CompileError, SyntaxError):
    """Raised on malformed PsimC source."""

    default_stage = "frontend"


# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        #: Levels of :data:`MAX_NESTING` currently open.
        self.depth = 0

    # -- token plumbing ---------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"line {tok.line}: expected {want!r}, found {tok.text!r}"
            )
        return self.advance()

    def deeper(self) -> None:
        """Open one nesting level (the caller closes it)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"line {self.tok.line}: nesting deeper than {MAX_NESTING} "
                "levels"
            )

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    # -- types --------------------------------------------------------------------

    def at_type(self, offset: int = 0) -> bool:
        tok = self.peek(offset) if offset else self.tok
        return tok.kind == "keyword" and type_by_name(tok.text) is not None

    def parse_type(self) -> CType:
        tok = self.expect("keyword")
        base = type_by_name(tok.text)
        if base is None:
            raise ParseError(f"line {tok.line}: {tok.text!r} is not a type")
        ctype = base
        while self.accept("op", "*"):
            ctype = ptr(ctype)
        return ctype

    # -- top level ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        functions = []
        while self.tok.kind != "eof":
            functions.append(self.parse_function())
        return ast.Program(functions=functions)

    def parse_function(self) -> ast.FuncDef:
        line = self.tok.line
        ret = self.parse_type()
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[ast.Param] = []
        if not self.accept("op", ")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect("ident").text
                params.append(ast.Param(line=line, name=pname, ctype=ptype))
                if self.accept("op", ")"):
                    break
                self.expect("op", ",")
        body = self.parse_block()
        return ast.FuncDef(line=line, name=name, ret=ret, params=params, body=body)

    # -- statements -------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        line = self.expect("op", "{").line
        stmts: List[ast.Stmt] = []
        while not self.accept("op", "}"):
            stmts.append(self.parse_statement())
        return ast.Block(line=line, stmts=stmts)

    def parse_statement(self) -> ast.Stmt:
        self.deeper()
        try:
            return self._parse_statement()
        finally:
            self.depth -= 1

    def _parse_statement(self) -> ast.Stmt:
        tok = self.tok
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "keyword":
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "return":
                self.advance()
                value = None
                if not (self.tok.kind == "op" and self.tok.text == ";"):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.ReturnStmt(line=tok.line, value=value)
            if tok.text == "break":
                self.advance()
                self.expect("op", ";")
                return ast.BreakStmt(line=tok.line)
            if tok.text == "continue":
                self.advance()
                self.expect("op", ";")
                return ast.ContinueStmt(line=tok.line)
            if tok.text == "psim":
                return self.parse_psim()
            if self.at_type():
                stmt = self.parse_declaration()
                self.expect("op", ";")
                return stmt
        stmt = self.parse_simple_statement()
        self.expect("op", ";")
        return stmt

    def parse_declaration(self) -> ast.VarDecl:
        line = self.tok.line
        ctype = self.parse_type()
        name = self.expect("ident").text
        array_size = None
        init = None
        if self.accept("op", "["):
            size_tok = self.expect("int")
            array_size = int(size_tok.text.rstrip("uUlL"), 0)
            self.expect("op", "]")
        if self.accept("op", "="):
            init = self.parse_expression()
        return ast.VarDecl(line=line, name=name, ctype=ctype, init=init, array_size=array_size)

    def parse_simple_statement(self) -> ast.Stmt:
        """An assignment, increment, or bare expression (no trailing ';')."""
        line = self.tok.line
        expr = self.parse_expression()
        tok = self.tok
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expression()
            return ast.Assign(line=line, target=expr, op=tok.text, value=value)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.advance()
            one = ast.IntLit(line=line, value=1)
            op = "+=" if tok.text == "++" else "-="
            return ast.Assign(line=line, target=expr, op=op, value=one)
        return ast.ExprStmt(line=line, expr=expr)

    def parse_if(self) -> ast.IfStmt:
        line = self.expect("keyword", "if").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self.parse_statement()
        els = None
        if self.accept("keyword", "else"):
            els = self.parse_statement()
        return ast.IfStmt(line=line, cond=cond, then=then, els=els)

    def parse_while(self) -> ast.WhileStmt:
        line = self.expect("keyword", "while").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.WhileStmt(line=line, cond=cond, body=body)

    def parse_for(self) -> ast.ForStmt:
        line = self.expect("keyword", "for").line
        self.expect("op", "(")
        init = None
        if not (self.tok.kind == "op" and self.tok.text == ";"):
            init = self.parse_declaration() if self.at_type() else self.parse_simple_statement()
        self.expect("op", ";")
        cond = None
        if not (self.tok.kind == "op" and self.tok.text == ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step = None
        if not (self.tok.kind == "op" and self.tok.text == ")"):
            step = self.parse_simple_statement()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.ForStmt(line=line, init=init, cond=cond, step=step, body=body)

    def parse_psim(self) -> ast.PsimStmt:
        """``psim (gang_size=G, num_threads=N) { ... }``"""
        line = self.expect("keyword", "psim").line
        self.expect("op", "(")
        self.expect("keyword", "gang_size")
        self.expect("op", "=")
        gang_size = self.parse_expression()
        self.expect("op", ",")
        count_tok = self.expect("keyword")
        if count_tok.text not in ("num_threads", "num_gangs"):
            raise ParseError(
                f"line {count_tok.line}: expected num_threads or num_gangs"
            )
        self.expect("op", "=")
        count = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_block()
        return ast.PsimStmt(
            line=line,
            gang_size=gang_size,
            count_kind=count_tok.text,
            count=count,
            body=body,
        )

    # -- expressions ----------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.accept("op", "?"):
            then = self.parse_expression()
            self.expect("op", ":")
            self.deeper()
            try:
                els = self.parse_ternary()
            finally:
                self.depth -= 1
            return ast.Ternary(line=cond.line, cond=cond, then=then, els=els)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        mark = self.depth
        self.deeper()
        try:
            left = self.parse_unary()
            while True:
                tok = self.tok
                prec = _PRECEDENCE.get(tok.text) if tok.kind == "op" else None
                if prec is None or prec < min_prec:
                    return left
                self.advance()
                self.deeper()  # ``left`` moves one level down the tree
                right = self.parse_binary(prec + 1)
                left = ast.Binary(line=tok.line, op=tok.text, left=left,
                                  right=right)
        finally:
            self.depth = mark

    def parse_unary(self) -> ast.Expr:
        self.deeper()
        try:
            return self._parse_unary()
        finally:
            self.depth -= 1

    def _parse_unary(self) -> ast.Expr:
        tok = self.tok
        if tok.kind == "op" and tok.text in ("-", "!", "~", "+"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        if tok.kind == "op" and tok.text == "*":
            self.advance()
            return ast.Deref(line=tok.line, operand=self.parse_unary())
        if tok.kind == "op" and tok.text == "&":
            self.advance()
            return ast.AddrOf(line=tok.line, operand=self.parse_unary())
        if tok.kind == "op" and tok.text == "(" and self.at_type(1):
            # cast: '(' type ')' unary
            self.advance()
            target = self.parse_type()
            self.expect("op", ")")
            return ast.Cast(line=tok.line, target=target, operand=self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("op", "["):
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(line=expr.line, base=expr, index=index)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.tok
        if tok.kind == "int":
            self.advance()
            text = tok.text
            suffix = ""
            while text and text[-1] in "uUlL":
                suffix += text[-1].lower()
                text = text[:-1]
            return ast.IntLit(line=tok.line, value=int(text, 0), suffix=suffix)
        if tok.kind == "float":
            self.advance()
            text = tok.text
            suffix = ""
            while text and text[-1] in "fFlL":
                suffix += text[-1].lower()
                text = text[:-1]
            return ast.FloatLit(line=tok.line, value=float(text), suffix=suffix)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return ast.BoolLit(line=tok.line, value=tok.text == "true")
        if tok.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                args: List[ast.Expr] = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_expression())
                        if self.accept("op", ")"):
                            break
                        self.expect("op", ",")
                return ast.Call(line=tok.line, name=tok.text, args=args)
            return ast.Ident(line=tok.line, name=tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise ParseError(f"line {tok.line}: unexpected token {tok.text!r}")


def parse_program(source: str) -> ast.Program:
    """Parse a PsimC translation unit."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (test helper)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    parser.expect("eof")
    return expr
