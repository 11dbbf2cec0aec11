"""Textual IR parser tests, including print→parse→print round-trips of
real compiler output (scalar, auto-vectorized, and Parsimony modules)."""

import numpy as np
import pytest

from repro.driver import compile_autovec, compile_parsimony, compile_scalar
from repro.ir import print_function, print_module, verify_module
from repro.ir.parser import IRParseError, parse_ir
from repro.passes import clone_module
from repro.vm import Interpreter


def test_parse_simple_function():
    module = parse_ir("""
    define i32 @add2(i32 %a, i32 %b) {
    entry:
      %sum = add i32 %a, i32 %b
      ret i32 %sum
    }
    """)
    assert Interpreter(module).run("add2", 5, 7) == 12


def test_parse_control_flow_and_phis():
    module = parse_ir("""
    define i32 @abs(i32 %x) {
    entry:
      %neg = icmp slt i32 %x, i32 0
      condbr i1 %neg, label %then, label %join
    then:
      %minus = sub i32 0, i32 %x
      br label %join
    join:
      %r = phi i32 [ %minus, %then ], [ %x, %entry ]
      ret i32 %r
    }
    """)
    interp = Interpreter(module)
    assert interp.run("abs", -9 & 0xFFFFFFFF) == 9
    assert interp.run("abs", 4) == 4


def test_parse_forward_references_in_loops():
    module = parse_ir("""
    define i32 @sum(i32 %n) {
    entry:
      br label %header
    header:
      %i = phi i32 [ 0, %entry ], [ %inext, %body ]
      %acc = phi i32 [ 0, %entry ], [ %anext, %body ]
      %more = icmp slt i32 %i, i32 %n
      condbr i1 %more, label %body, label %exit
    body:
      %anext = add i32 %acc, i32 %i
      %inext = add i32 %i, i32 1
      br label %header
    exit:
      ret i32 %acc
    }
    """)
    assert Interpreter(module).run("sum", 10) == 45


def test_parse_vector_ops():
    module = parse_ir("""
    define void @scale(i32* %p) {
    entry:
      %v = vload i32* %p, <4 x i1> <1, 1, 1, 1> -> <4 x i32>
      %twos = broadcast i32 2 -> <4 x i32>
      %d = mul <4 x i32> %v, <4 x i32> %twos
      vstore <4 x i32> %d, i32* %p, <4 x i1> <1, 1, 1, 1>
      ret void
    }
    """)
    interp = Interpreter(module)
    addr = interp.memory.alloc_array(np.arange(4, dtype=np.uint32))
    interp.run("scale", addr)
    assert interp.memory.read_array(addr, np.uint32, 4).tolist() == [0, 2, 4, 6]


def test_parse_declare_and_call():
    module = parse_ir("""
    declare f32 @ml.exp.f32(f32)
    define f32 @f(f32 %x) {
    entry:
      %e = call f32 @ml.exp.f32(f32 %x)
      ret f32 %e
    }
    """)
    assert "ml.exp.f32" in module.externals


def test_parse_errors():
    with pytest.raises(IRParseError):
        parse_ir("define bogus @f() { }")
    with pytest.raises(IRParseError):
        parse_ir("""
        define i32 @f() {
        entry:
          ret i32 %undefined_value
        }
        """)


SRC_SCALAR = """
u32 kernel(u32* a, u32 n) {
    u32 acc = 0;
    for (u32 i = 0; i < n; i++) {
        if (a[i] > 10) { acc += a[i]; } else { acc += 1; }
    }
    return acc;
}
"""

SRC_SPMD = """
void kernel(u8* a, u8* b, u64 n) {
    psim (gang_size=16, num_threads=n) {
        u64 i = psim_get_thread_num();
        b[i] = avgr(a[i], b[i]);
    }
}
"""


@pytest.mark.parametrize(
    "module_factory",
    [
        lambda: compile_scalar(SRC_SCALAR),
        lambda: compile_autovec(SRC_SCALAR),
        lambda: compile_parsimony(SRC_SPMD),
    ],
    ids=["scalar", "autovec", "parsimony"],
)
def test_roundtrip_real_compiler_output(module_factory):
    """print(parse(print(M))) == print(M) for real pipeline output."""
    module = clone_module(module_factory())  # compile results are frozen
    # The textual form does not carry spmd annotations or external impls;
    # restrict to the executable, annotation-free functions.
    for f in list(module.functions.values()):
        if f.spmd is not None or ".scalarref" in f.name:
            del module.functions[f.name]
    text = print_module(module)
    reparsed = parse_ir(text)
    verify_module(reparsed)
    assert print_module(reparsed) == text
