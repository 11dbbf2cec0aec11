"""``repro.passes`` — the scalar middle-end: pass manager and standard
optimizations (mem2reg, constant folding, DCE, CFG simplification,
inlining, dead-function elimination).  The Parsimony vectorizer (``repro.vectorizer``) slots into
this pipeline as one more IR-to-IR pass."""

from .pass_manager import FunctionPass, PassManager
from .mem2reg import mem2reg
from .simplify_cfg import remove_unreachable_blocks, simplify_cfg
from .constfold import constant_fold
from .dce import dce
from .inline import inline_call, inline_function_calls, inline_module_calls
from .globaldce import delete_dead_functions
from .clone import clone_blocks, clone_function, clone_module
from .loop_simplify import loop_simplify
from .cse import cse
from .narrow import narrow_ints
from .licm import licm

__all__ = [
    "FunctionPass",
    "PassManager",
    "mem2reg",
    "simplify_cfg",
    "remove_unreachable_blocks",
    "constant_fold",
    "dce",
    "inline_call",
    "inline_function_calls",
    "inline_module_calls",
    "delete_dead_functions",
    "clone_blocks",
    "clone_function",
    "clone_module",
    "loop_simplify",
    "cse",
    "narrow_ints",
    "licm",
    "standard_pipeline",
]


def standard_pipeline(verify_each: bool = True) -> PassManager:
    """The default -O2-ish scalar pipeline used before vectorization."""
    return PassManager(
        [mem2reg, constant_fold, simplify_cfg, cse, narrow_ints, constant_fold,
         cse, dce, constant_fold, dce],
        verify_each=verify_each,
    )
