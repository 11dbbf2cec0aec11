"""Global dead-function elimination (LLVM's ``globaldce``, narrowed).

The standard pipeline Parsimony targets follows the inliner with global
DCE, which deletes internal functions the inliner left without callers
(§4.1: the outlined SPMD function "can later be re-inlined by the
back-end").  Here the caller names which functions count as internal: a
source-level function stays even when nothing calls it.
"""

from __future__ import annotations

from typing import Callable, List

from ..ir.module import Function, Module

__all__ = ["delete_dead_functions"]


def delete_dead_functions(module: Module,
                          internal: Callable[[Function], bool]) -> List[Function]:
    """Delete every function ``internal`` accepts that nothing references
    (``function.uses`` is empty); returns them in deletion order.

    A deleted function is torn down (``Function.teardown``), so shared
    constants, externals and callees keep no use of a deleted instruction —
    which may leave another internal function unreferenced, so the sweep
    repeats until nothing more dies.
    """
    module.require_mutable("delete_dead_functions")
    deleted: List[Function] = []
    while True:
        dead = [f for f in module.functions.values() if not f.uses and internal(f)]
        if not dead:
            return deleted
        for function in dead:
            function.teardown()
            del module.functions[function.name]
        deleted.extend(dead)
