"""Control-flow-graph analyses: orderings, dominators, natural loops.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm and
classic back-edge based natural-loop discovery.  These feed mem2reg, the
auto-vectorizer's loop finder, and the Parsimony structurizer/mask builder.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .module import BasicBlock, Function

__all__ = [
    "reverse_postorder",
    "DominatorTree",
    "dominance_frontiers",
    "Loop",
    "find_loops",
]


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks reachable from entry, in reverse postorder."""
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on deep CFGs.
    stack = [(function.entry, iter(function.entry.successors))]
    visited.add(function.entry)
    while stack:
        _block, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succ.successors)))
                advanced = True
                break
        if not advanced:
            postorder.append(stack.pop()[0])
    return postorder[::-1]


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
        entry = self.function.entry
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in self.rpo}
        idom[entry] = entry
        # Edges do not move while the fixpoint runs: list each block's
        # reachable predecessors once, not once per round.
        reachable_preds = {
            block: [p for p in block.predecessors if p in idom]
            for block in self.rpo if block is not entry
        }
        changed = True
        while changed:
            changed = False
            for block, all_preds in reachable_preds.items():
                preds = [p for p in all_preds if idom[p] is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(idom, pred, new_idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(self, idom, b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
        while b1 is not b2:
            while self._rpo_index[b1] > self._rpo_index[b2]:
                b1 = idom[b1]
            while self._rpo_index[b2] > self._rpo_index[b1]:
                b2 = idom[b2]
        return b1

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


class Loop:
    """A natural loop: header, body blocks, latches, and exits."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

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

    def is_innermost(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"<loop header={self.header.name} blocks={len(self.blocks)}>"


def find_loops(function: Function, dt: Optional[DominatorTree] = None) -> List[Loop]:
    """Discover natural loops via back edges; returns loops nested-outermost
    first, with parent/child links populated."""
    dt = dt or DominatorTree(function)
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
            best.children.append(loop)
    loops.sort(key=lambda l: l.depth)
    return loops
