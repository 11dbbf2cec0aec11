"""Unit tests for the PsimC lexer and parser."""

import pytest

from repro.frontend import LexError, ParseError, parse_expression, parse_program, tokenize
from repro.frontend import ast


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


def test_tokenize_basics():
    assert kinds("x + 42") == [("ident", "x"), ("op", "+"), ("int", "42")]
    assert kinds("0xFF") == [("int", "0xFF")]
    assert kinds("1.5f") == [("float", "1.5f")]
    assert kinds("1e3") == [("float", "1e3")]
    assert kinds("a >> 2") == [("ident", "a"), ("op", ">>"), ("int", "2")]
    assert kinds("i32")[0][0] == "keyword"


def test_comments_skipped():
    assert kinds("a // comment\n + /* block\n comment */ b") == [
        ("ident", "a"), ("op", "+"), ("ident", "b"),
    ]


def test_unterminated_comment_rejected():
    with pytest.raises(LexError, match="unterminated"):
        tokenize("a /* never closed")


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a ` b")


def test_precedence_mul_over_add():
    expr = parse_expression("a + b * c")
    assert isinstance(expr, ast.Binary) and expr.op == "+"
    assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"


def test_precedence_shift_vs_compare():
    expr = parse_expression("a << 1 < b")
    assert expr.op == "<"
    assert isinstance(expr.left, ast.Binary) and expr.left.op == "<<"


def test_ternary_right_associative():
    expr = parse_expression("a ? b : c ? d : e")
    assert isinstance(expr, ast.Ternary)
    assert isinstance(expr.els, ast.Ternary)


def test_unary_and_cast():
    expr = parse_expression("-(u8)x")
    assert isinstance(expr, ast.Unary) and expr.op == "-"
    assert isinstance(expr.operand, ast.Cast)
    assert expr.operand.target.name == "u8"


def test_deref_and_addrof():
    assert isinstance(parse_expression("*p"), ast.Deref)
    assert isinstance(parse_expression("&a[3]"), ast.AddrOf)


def test_index_chains():
    expr = parse_expression("a[b[i]]")
    assert isinstance(expr, ast.Index)
    assert isinstance(expr.index, ast.Index)


def test_program_structure():
    program = parse_program("""
    i32 add(i32 a, i32 b) { return a + b; }
    void nothing() { }
    """)
    assert [f.name for f in program.functions] == ["add", "nothing"]
    assert program.functions[0].ret.name == "i32"
    assert [p.name for p in program.functions[0].params] == ["a", "b"]


def test_psim_statement_parses():
    program = parse_program("""
    void f(f32* a, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            a[i] = 0.0f;
        }
    }
    """)
    stmt = program.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.PsimStmt)
    assert stmt.count_kind == "num_threads"


def test_parse_errors_have_line_numbers():
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_program("i32 f() {\n  return 1;\n  + ;\n}")


def test_for_with_empty_clauses():
    program = parse_program("void f() { for (;;) { break; } }")
    loop = program.functions[0].body.stmts[0]
    assert isinstance(loop, ast.ForStmt)
    assert loop.init is None and loop.cond is None and loop.step is None


def test_increment_sugar():
    program = parse_program("void f() { for (i32 i = 0; i < 4; i++) { } }")
    step = program.functions[0].body.stmts[0].step
    assert isinstance(step, ast.Assign) and step.op == "+="


# -- the nesting budget ---------------------------------------------------------------
#
# Hostile nesting used to leave every ``compile_*`` entry point as a bare
# ``RecursionError`` from whichever stage ran out of stack first.


def _nested_kernel(shape: str, depth: int) -> str:
    """A one-statement kernel (the statement on line 4) nested ``depth``
    deep in one way."""
    statement = {
        "parens": "a[i] = " + "(" * depth + "1" + ")" * depth + ";",
        "sum": "a[i] = " + " + ".join(["a[i]"] * (depth + 1)) + ";",
        "ternary": "a[i] = " + "a[i] > 0 ? 1 : " * depth + "2;",
        "subscript": "a[i] = " + "a[" * depth + "i" + "]" * depth + ";",
        "blocks": "{" * depth + "a[i] = 1;" + "}" * depth,
        "ifs": "if (a[i] > 0) " * depth + "a[i] = 1;",
    }[shape]
    return ("void kernel(u64* a, u64 n) {\n"
            "    psim (gang_size=8, num_threads=n) {\n"
            "        u64 i = psim_get_thread_num();\n"
            f"        {statement}\n"
            "    }\n"
            "}\n")


@pytest.mark.parametrize(
    "shape", ["parens", "sum", "ternary", "subscript", "blocks", "ifs"])
def test_hostile_nesting_is_a_compile_error_with_a_line(shape):
    import repro
    from repro.diagnostics import CompileError

    source = _nested_kernel(shape, 3000)
    for compile_ in (repro.compile_parsimony, repro.compile_scalar,
                     repro.compile_autovec, repro.compile_ispc):
        with pytest.raises(CompileError, match=r"line 4: nesting") as info:
            compile_(source)
        assert info.value.diagnostic.stage == "frontend"


def test_nesting_at_the_edge_of_the_budget_compiles():
    import repro
    from repro.frontend.parser import MAX_NESTING

    # The psim region and the assignment are two statement levels; every
    # pair of parentheses (and the literal inside them) is a precedence
    # step and an operand.
    edge = (MAX_NESTING - 4) // 2
    module = repro.compile_parsimony(_nested_kernel("parens", edge))
    assert "kernel" in module.functions
    with pytest.raises(ParseError, match="nesting deeper than"):
        repro.compile_parsimony(_nested_kernel("parens", edge + 1))
    # Statement nesting spends one level each; the innermost assignment's
    # ``a[i]`` opens four more (two operands, a precedence step each).
    repro.compile_parsimony(_nested_kernel("blocks", MAX_NESTING - 6))
    with pytest.raises(ParseError, match="nesting deeper than"):
        repro.compile_parsimony(_nested_kernel("blocks", MAX_NESTING - 5))
