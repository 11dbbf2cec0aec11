"""Unit tests for CFG analyses: RPO, dominators, postdominators,
frontiers, loops."""

import pytest

from repro.ir import (
    I1,
    I32,
    Constant,
    DominatorTree,
    Function,
    FunctionType,
    IRBuilder,
    dominance_frontiers,
    find_loops,
    reverse_postorder,
)
from repro.ir.cfg import postdominators


def diamond():
    """entry -> {then, else} -> join -> exit"""
    f = Function("d", FunctionType(I32, (I1,)), ["c"])
    entry = f.add_block("entry")
    then = f.add_block("then")
    els = f.add_block("else")
    join = f.add_block("join")
    b = IRBuilder(f, entry)
    b.condbr(f.args[0], then, els)
    b.position_at_end(then)
    b.br(join)
    b.position_at_end(els)
    b.br(join)
    b.position_at_end(join)
    b.ret(Constant(I32, 0))
    return f, entry, then, els, join


def test_reverse_postorder_visits_preds_first():
    f, entry, then, els, join = diamond()
    rpo = reverse_postorder(f)
    assert rpo[0] is entry
    assert rpo.index(join) > rpo.index(then)
    assert rpo.index(join) > rpo.index(els)


def test_dominators_of_diamond():
    f, entry, then, els, join = diamond()
    dt = DominatorTree(f)
    assert dt.idom[then] is entry
    assert dt.idom[els] is entry
    assert dt.idom[join] is entry  # neither branch dominates the join
    assert dt.dominates(entry, join)
    assert not dt.dominates(then, join)
    assert dt.strictly_dominates(entry, then)
    assert not dt.strictly_dominates(entry, entry)


def test_dominance_frontiers_of_diamond():
    f, entry, then, els, join = diamond()
    dt = DominatorTree(f)
    df = dominance_frontiers(dt)
    assert df[then] == {join}
    assert df[els] == {join}
    assert df[join] == set()


def loop_cfg():
    """entry -> header <-> body ; header -> exit"""
    f = Function("l", FunctionType(I32, (I32,)), ["n"])
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(f, entry)
    b.br(header)
    b.position_at_end(header)
    phi = b.phi(I32, "i")
    phi.append_operand(Constant(I32, 0))
    phi.append_operand(entry)
    b.condbr(b.icmp("slt", phi, f.args[0]), body, exit_)
    b.position_at_end(body)
    nxt = b.add(phi, Constant(I32, 1))
    phi.append_operand(nxt)
    phi.append_operand(body)
    b.br(header)
    b.position_at_end(exit_)
    b.ret(phi)
    return f, header, body, exit_


def test_natural_loop_discovery():
    f, header, body, exit_ = loop_cfg()
    loops = find_loops(f)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.header is header
    assert loop.blocks == {header, body}
    assert loop.latches == [body]
    assert loop.exit_blocks() == [exit_]
    assert loop.exiting_blocks() == [header]
    assert loop.is_innermost()
    assert loop.depth == 1


def test_nested_loop_depths():
    from repro.frontend import compile_source
    from repro.passes import mem2reg

    module = compile_source("""
    i32 f(i32 n) {
        i32 acc = 0;
        for (i32 i = 0; i < n; i++) {
            for (i32 j = 0; j < n; j++) {
                acc += i * j;
            }
        }
        return acc;
    }
    """)
    func = module.functions["f"]
    mem2reg(func)
    loops = find_loops(func)
    assert len(loops) == 2
    depths = sorted(loop.depth for loop in loops)
    assert depths == [1, 2]
    inner = next(l for l in loops if l.depth == 2)
    outer = next(l for l in loops if l.depth == 1)
    assert inner.parent is outer
    assert inner in outer.children
    assert not outer.is_innermost()


# -- the dominator-tree memo ---------------------------------------------------


def test_dominator_tree_is_reused_until_the_cfg_changes():
    from repro.ir import VOID, Instruction, dominator_tree

    f, entry, then, els, join = diamond()
    first = dominator_tree(f)
    assert dominator_tree(f) is first
    assert first.idom[join] is entry

    # An edge moved through the mutator API...
    then.terminator.set_operand(0, els)
    second = dominator_tree(f)
    assert second is not first and second.idom[join] is els

    # ...or written straight into a block's instruction list: the memo is
    # keyed by the CFG itself, so no write can leave it stale.
    then.instructions[-1].drop_operands()
    then.instructions[-1] = Instruction("br", VOID, [join])
    then.instructions[-1].parent = then
    third = dominator_tree(f)
    assert third is not second and third.idom[join] is entry


def test_paranoid_mode_checks_every_memo_hit():
    import pytest

    from repro.ir import dominator_tree
    from repro.ir.verifier import VerificationError
    from repro.passes.pass_manager import set_paranoid

    f, entry, then, els, join = diamond()
    tree = dominator_tree(f)
    set_paranoid(True)
    try:
        assert dominator_tree(f) is tree  # a sound memo passes the check
        tree.idom[join] = then  # a memo gone wrong
        with pytest.raises(VerificationError, match="memoized dominator tree"):
            dominator_tree(f)
        set_paranoid(False)
        assert dominator_tree(f) is tree  # unchecked outside paranoid mode
    finally:
        set_paranoid(None)


def test_freezing_and_pickling_drop_the_memo():
    from repro.ir import Module, dominator_tree
    from repro.ir.values import thawed_state

    f, *_ = diamond()
    module = Module()
    module.add_function(f)
    dominator_tree(f)
    assert f._dominators is not None
    assert "_dominators" not in thawed_state(f)
    module.freeze()
    assert f._dominators is None
    dominator_tree(f)
    assert f._dominators is None  # a frozen function keeps no memo


# -- postdominators ------------------------------------------------------------


def _cfg(edges):
    """A void function over ``edges``: block name -> successor names, or
    ``"ret"``/``"unreachable"``; two successors branch on the argument."""
    from repro.ir import VOID

    f = Function("p", FunctionType(VOID, (I1,)), ["c"])
    blocks = {name: f.add_block(name) for name in edges}
    b = IRBuilder(f, blocks["entry"])
    for name, succs in edges.items():
        b.position_at_end(blocks[name])
        if succs == "ret":
            b.ret()
        elif succs == "unreachable":
            b.unreachable()
        elif len(succs) == 1:
            b.br(blocks[succs[0]])
        else:
            b.condbr(f.args[0], blocks[succs[0]], blocks[succs[1]])
    return f, blocks


def _brute_ipdom(f):
    """Immediate postdominators by the path definition: ``d`` postdominates
    ``b`` iff every path from ``b`` to a ``ret``/``unreachable`` passes
    through ``d``, i.e. none is left once ``d`` is removed."""
    blocks = reverse_postorder(f)

    def reaches_exit(start, removed):
        seen, stack = set(), [start]
        while stack:
            block = stack.pop()
            if block is removed or block in seen:
                continue
            seen.add(block)
            if block.terminator.opcode in ("ret", "unreachable"):
                return True
            stack.extend(block.successors)
        return False

    def strict(b):
        return {d for d in blocks if d is not b and not reaches_exit(b, d)}

    want = {}
    for b in blocks:
        if not reaches_exit(b, None):
            continue  # no exit to postdominate it
        pdoms = strict(b)
        want[b] = next((d for d in pdoms if strict(d) == pdoms - {d}), None)
    return want


POSTDOM_CFGS = {
    "diamond": {"entry": ("then", "else"), "then": ("join",),
                "else": ("join",), "join": "ret"},
    "multi-exit": {"entry": ("a", "b"), "a": ("join", "early"),
                   "b": ("join",), "early": "ret", "join": ("c", "trap"),
                   "c": "ret", "trap": "unreachable"},
    "early-ret-in-loop": {"entry": ("header",), "header": ("body", "done"),
                          "body": ("found", "latch"), "found": "ret",
                          "latch": ("header",), "done": "ret"},
    "infinite-loop": {"entry": ("spin", "out"), "spin": ("spin2",),
                      "spin2": ("spin",), "out": ("tail", "spin"),
                      "tail": "ret"},
}



@pytest.mark.parametrize("name", sorted(POSTDOM_CFGS))
def test_postdominators_match_the_path_definition(name):
    f, blocks = _cfg(POSTDOM_CFGS[name])
    got = postdominators(f)
    assert got == _brute_ipdom(f)
    if name == "infinite-loop":
        assert blocks["spin"] not in got and blocks["spin2"] not in got
        assert got[blocks["entry"]] is blocks["out"]
        assert got[blocks["out"]] is blocks["tail"]
    if name == "multi-exit":
        assert got[blocks["entry"]] is None  # only the virtual exit
        assert got[blocks["b"]] is blocks["join"]
