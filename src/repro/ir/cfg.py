"""Control-flow-graph analyses: orderings, dominators, natural loops.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm — once,
for dominators and for postdominators (codegen's structural joins) — and
classic back-edge based natural-loop discovery.  These feed mem2reg, the
auto-vectorizer's loop finder, the Parsimony structurizer/mask builder and
the codegen structurer.

Every consumer takes its tree from :func:`dominator_tree`, which hands
back the tree it last built for a function while the function's CFG —
entry block plus each block's successor list — is unchanged.  The memo is
keyed by that CFG itself, not by a counter a pass must remember to bump,
so no direct write to ``blocks``/``instructions``/``_operands`` can make
it stale; under ``REPRO_PARANOID`` every hit is checked against a fresh
tree.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set

from .module import BasicBlock, Function

__all__ = [
    "reverse_postorder",
    "DominatorTree",
    "dominator_tree",
    "dominance_frontiers",
    "postdominators",
    "Loop",
    "find_loops",
]


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks reachable from entry, in reverse postorder."""
    return _reverse_postorder(function.entry, lambda block: block.successors)


def _reverse_postorder(root, successors) -> list:
    """Nodes reachable from ``root`` along ``successors(node)``, in
    reverse postorder."""
    visited = {root}
    postorder = []

    # Iterative DFS to avoid recursion limits on deep CFGs.
    stack = [(root, iter(successors(root)))]
    while stack:
        _node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(successors(succ))))
                advanced = True
                break
        if not advanced:
            postorder.append(stack.pop()[0])
    return postorder[::-1]


def _immediate_dominators(rpo: list, preds: dict) -> dict:
    """Cooper–Harvey–Kennedy: the immediate dominator of every node of a
    graph given in reverse postorder from its root ``rpo[0]`` (which maps
    to itself), each node's predecessors listed in ``preds``."""
    index = {node: i for i, node in enumerate(rpo)}
    idom = dict.fromkeys(rpo)
    idom[rpo[0]] = rpo[0]

    def intersect(b1, b2):
        while b1 is not b2:
            while index[b1] > index[b2]:
                b1 = idom[b1]
            while index[b2] > index[b1]:
                b2 = idom[b2]
        return b1

    changed = True
    while changed:
        changed = False
        for node in rpo[1:]:
            new = None
            for pred in preds[node]:
                if idom[pred] is not None:
                    new = pred if new is None else intersect(pred, new)
            if new is not None and idom[node] is not new:
                idom[node] = new
                changed = True
    return idom


class DominatorTree:
    """Immediate-dominator tree for the reachable CFG of a function."""

    def __init__(self, function: Function):
        self.function = function
        self.rpo = reverse_postorder(function)
        self._rpo_index = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()
        self.children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.rpo}
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                self.children[parent].append(block)

    def _compute(self) -> None:
        # Edges do not move while the fixpoint runs: list each block's
        # reachable predecessors once, not once per round.
        index = self._rpo_index
        self.idom = _immediate_dominators(self.rpo, {
            block: [p for p in block.predecessors if p in index]
            for block in self.rpo})

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexively)."""
        runner: Optional[BasicBlock] = b
        entry = self.function.entry
        while runner is not None:
            if runner is a:
                return True
            if runner is entry:
                return False
            runner = self.idom.get(runner)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)


def _cfg_key(function: Function) -> tuple:
    """Everything a dominator tree of ``function`` is computed from."""
    return (function.entry,
            tuple([(block, tuple(block.successors)) for block in function.blocks]))


def dominator_tree(function: Function) -> DominatorTree:
    """The dominator tree of ``function``'s current CFG, reused from the
    last call while the CFG is unchanged.  Callers only read the tree.  A
    frozen function keeps no memo (``Function._freeze`` drops it): its
    readers run once per emission and the memo would only add objects for
    the collector to walk in every cached module."""
    key = _cfg_key(function)
    memo = function._dominators
    if memo is not None and memo[0] == key:
        tree = memo[1]
        from ..passes.pass_manager import paranoid_enabled

        if paranoid_enabled():
            _check_memo(function, tree)
        return tree
    tree = DominatorTree(function)
    if not function.frozen:
        function._dominators = (key, tree)
    return tree


def _check_memo(function: Function, tree: DominatorTree) -> None:
    fresh = DominatorTree(function)
    if (tree.rpo != fresh.rpo or tree.idom != fresh.idom
            or tree.children != fresh.children):
        from .verifier import VerificationError

        raise VerificationError(
            f"memoized dominator tree of @{function.name} differs from a "
            f"fresh one over the same CFG key",
            function=function.name,
        )


def dominance_frontiers(dt: DominatorTree) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Cytron et al. dominance frontiers, for SSA phi placement."""
    df: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in dt.rpo}
    for block in dt.rpo:
        preds = [p for p in block.predecessors if p in dt._rpo_index]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner is not dt.idom[block]:
                df[runner].add(block)
                runner = dt.idom[runner]
                if runner is None:  # unreachable pred chains
                    break
    return df


_EXITS = ("ret", "unreachable")


def postdominators(
        function: Function) -> Dict[BasicBlock, Optional[BasicBlock]]:
    """Immediate postdominators of the reachable CFG: the dominators of
    the reverse graph rooted at a virtual exit that joins every
    ``ret``/``unreachable`` block.  A block postdominated by nothing but
    that exit maps to ``None``; a block that cannot reach an exit (an
    infinite loop) is absent."""
    reachable = reverse_postorder(function)
    exit_node = object()
    reachable_set = set(reachable)
    # Reverse-graph successors are CFG predecessors, and its predecessors
    # CFG successors (the exit's edge for an exiting block).
    rsucc = {b: [p for p in b.predecessors if p in reachable_set]
             for b in reachable}
    rsucc[exit_node] = [b for b in reachable
                        if getattr(b.terminator, "opcode", None) in _EXITS]
    rpo = _reverse_postorder(exit_node, rsucc.__getitem__)
    exiting = set(rpo)
    rpreds = {b: [s for s in b.successors if s in exiting] for b in rpo[1:]}
    for b in rsucc[exit_node]:
        rpreds[b].append(exit_node)
    ipdom = _immediate_dominators(rpo, rpreds)
    del ipdom[exit_node]
    return {b: None if p is exit_node else p for b, p in ipdom.items()}


class Loop:
    """A natural loop: header, body blocks, latches, and exits."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.parent: Optional["Loop"] = None
        #: Weak references to the loops nested directly inside this one: a
        #: child holds its parent, so strong links both ways would be a
        #: cycle in every loop nest, freed only by the cycle collector.
        self._children: List[weakref.ref] = []

    @property
    def latches(self) -> List[BasicBlock]:
        """Blocks inside the loop that branch back to the header."""
        return [p for p in self.header.predecessors if p in self.blocks]

    @property
    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in self.header.predecessors if p not in self.blocks]
        if len(outside) == 1 and outside[0].successors == [self.header]:
            return outside[0]
        return None

    def ordered_blocks(self) -> List[BasicBlock]:
        """The body in function order.  ``blocks`` is a set hashed by
        address: whatever names, emits or moves IR per block walks this
        instead, so a compile prints the same IR every time."""
        return [b for b in self.header.parent.blocks if b in self.blocks]

    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.ordered_blocks():
            if any(s not in self.blocks for s in block.successors):
                result.append(block)
        return result

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside."""
        result = []
        for block in self.ordered_blocks():
            for succ in block.successors:
                if succ not in self.blocks and succ not in result:
                    result.append(succ)
        return result

    @property
    def depth(self) -> int:
        depth, loop = 1, self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    @property
    def children(self) -> List["Loop"]:
        """The loops nested directly inside this one (that are still
        alive: ``find_loops``'s list holds them all)."""
        return [loop for loop in (ref() for ref in self._children)
                if loop is not None]

    def is_innermost(self) -> bool:
        return not self._children

    def __repr__(self) -> str:
        return f"<loop header={self.header.name} blocks={len(self.blocks)}>"


def find_loops(function: Function, dt: Optional[DominatorTree] = None) -> List[Loop]:
    """Discover natural loops via back edges; returns loops nested-outermost
    first, with parent/child links populated."""
    dt = dt or dominator_tree(function)
    loops_by_header: Dict[BasicBlock, Loop] = {}
    for block in dt.rpo:
        for succ in block.successors:
            if dt.dominates(succ, block):  # back edge block -> succ
                header = succ
                body = loops_by_header.get(header)
                blocks = body.blocks if body else {header}
                # Walk predecessors backwards from the latch.
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in blocks:
                        continue
                    blocks.add(node)
                    stack.extend(p for p in node.predecessors if p in dt._rpo_index)
                if body is None:
                    loops_by_header[header] = Loop(header, blocks)

    loops = list(loops_by_header.values())
    # Establish nesting: a loop's parent is the smallest strictly-containing loop.
    for loop in loops:
        best = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks <= other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
        if best is not None:
            best._children.append(weakref.ref(loop))
    loops.sort(key=lambda l: l.depth)
    return loops
