"""Module, function, and basic-block containers.

``BasicBlock`` is itself a ``Value`` (of void type, like LLVM's label type)
so that branch and phi instructions can reference blocks through the normal
operand/def-use machinery; CFG edge rewriting then falls out of
``replace_all_uses_with``.

Freezing
--------

``Module.freeze()`` seals a finished module: every structural container
reachable from it — ``functions`` / ``externals`` / ``attrs`` (module,
function and instruction level), ``Function.blocks``,
``BasicBlock.instructions``, ``Instruction._operands`` and every
``Value.uses`` — is swapped for its immutable form
(``MappingProxyType`` / tuple / frozenset).  Readers see no difference;
the IR mutator methods raise
:class:`~repro.diagnostics.FrozenModuleError` naming ``clone_module``,
and a write that bypasses them dies on the sealed container itself.
That is what lets the driver's compile cache hand the *same* module to
every caller.  Attribute *values* (types, ``SpmdInfo``, batch charge
tables) were always shared payloads nobody writes.  There is no
``unfreeze``: ``repro.passes.clone_module`` builds a mutable copy, and a
frozen module pickles as its mutable form (``thawed_state``).
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Callable, Dict, List, Optional

from ..diagnostics import FrozenModuleError
from .instructions import Instruction
from .types import FunctionType, Type, VOID
from .values import Argument, Value, thawed_state

__all__ = ["BasicBlock", "Function", "ExternalFunction", "Module", "SpmdInfo"]


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = ""):
        super().__init__(VOID, name)
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    def append(self, instr: Instruction) -> Instruction:
        if type(self.instructions) is tuple:
            raise FrozenModuleError(f"append to {self!r}", block=self.name)
        if self.instructions and self.instructions[-1].is_terminator:
            raise RuntimeError(f"appending after terminator in block {self.name}")
        instr.parent = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        if type(self.instructions) is tuple:
            raise FrozenModuleError(f"insert into {self!r}", block=self.name)
        instr.parent = self
        self.instructions.insert(index, instr)
        return instr

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    @property
    def predecessors(self) -> List["BasicBlock"]:
        preds = []
        for user, idx in self.uses:
            if (
                isinstance(user, Instruction)
                and user.opcode in ("br", "condbr")
                and user.parent is not None
                and user.parent not in preds
                # for condbr, operand 0 is the condition, 1/2 are targets
                and (user.opcode == "br" or idx in (1, 2))
            ):
                preds.append(user.parent)
        return preds

    def phis(self) -> List[Instruction]:
        return [i for i in self.instructions if i.opcode == "phi"]

    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self.instructions if i.opcode != "phi"]

    def first_non_phi_index(self) -> int:
        for idx, instr in enumerate(self.instructions):
            if instr.opcode != "phi":
                return idx
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<block {self.name}>"


class SpmdInfo:
    """SPMD annotation attached to an outlined region function (§4.1).

    Records the metadata the front-end must communicate to the vectorizer:
    the gang size, whether this is the *partial* (tail) variant that needs a
    ``thread_id < num_threads`` guard, and which trailing arguments carry the
    gang base thread id and the total thread count.
    """

    def __init__(
        self,
        gang_size: int,
        partial: bool = False,
        base_arg_index: Optional[int] = None,
        nthreads_arg_index: Optional[int] = None,
    ):
        if gang_size < 1:
            raise ValueError("gang_size must be >= 1")
        self.gang_size = gang_size
        self.partial = partial
        self.base_arg_index = base_arg_index
        self.nthreads_arg_index = nthreads_arg_index

    def __repr__(self) -> str:
        kind = "partial" if self.partial else "full"
        return f"spmd(gang_size={self.gang_size}, {kind})"


class Function(Value):
    """An IR function: arguments plus a list of basic blocks.

    ``spmd`` holds the :class:`SpmdInfo` annotation for outlined SPMD region
    functions (``None`` for ordinary scalar functions).
    """

    def __init__(self, name: str, ftype: FunctionType, arg_names=None):
        super().__init__(ftype, name)
        self.ftype = ftype
        arg_names = arg_names or [f"arg{i}" for i in range(len(ftype.params))]
        self.args = [
            Argument(t, n, i, self) for i, (t, n) in enumerate(zip(ftype.params, arg_names))
        ]
        self.blocks: List[BasicBlock] = []
        self.spmd: Optional[SpmdInfo] = None
        self.attrs: Dict = {}
        self._name_counter = itertools.count()
        self._used_names: set = set()

    #: Back-end emissions of this very function object (owned by
    #: ``repro.backend.codegen``): they live and die with the function,
    #: are never cloned and never pickled.
    _emissions = None

    @property
    def frozen(self) -> bool:
        return type(self.blocks) is tuple

    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def add_block(self, name: str = "bb", before: Optional[BasicBlock] = None) -> BasicBlock:
        if self.frozen:
            raise FrozenModuleError(f"add_block to {self!r}", function=self.name)
        block = BasicBlock(self.unique_name(name))
        block.parent = self
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        if self.frozen:
            raise FrozenModuleError(
                f"remove_block from {self!r}", function=self.name
            )
        for instr in list(block.instructions):
            instr.drop_operands()
            instr.parent = None
        block.instructions = []
        self.blocks.remove(block)
        block.parent = None

    def unique_name(self, hint: str = "v") -> str:
        hint = hint or "v"
        if hint not in self._used_names:
            self._used_names.add(hint)
            return hint
        while True:
            candidate = f"{hint}.{next(self._name_counter)}"
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                return candidate

    def instructions(self):
        """Iterate over every instruction in block order."""
        for block in self.blocks:
            yield from block.instructions

    def _freeze(self) -> None:
        # Whatever was emitted while the function could still change is
        # dropped, so a frozen function's emissions all describe it.
        self._emissions = None
        self.uses = tuple(self.uses)
        for arg in self.args:
            arg.uses = tuple(arg.uses)
        for block in self.blocks:
            for instr in block.instructions:
                # Operands reach what nothing else lists: constants,
                # undefs, externals.
                for op in instr._operands:
                    if type(op.uses) is list:
                        op.uses = tuple(op.uses)
                instr._operands = tuple(instr._operands)
                instr.uses = tuple(instr.uses)
                instr.attrs = MappingProxyType(instr.attrs)
            block.uses = tuple(block.uses)
            block.instructions = tuple(block.instructions)
        self.blocks = tuple(self.blocks)
        self.attrs = MappingProxyType(self.attrs)
        self._used_names = frozenset(self._used_names)

    def __repr__(self) -> str:
        return f"<function {self.name}>"


class ExternalFunction(Value):
    """A runtime-provided function (math library calls, prints, ...).

    ``impl`` is the Python callable the VM invokes; ``cost`` is either an
    integer cycle count or a callable ``(machine, arg_types) -> int`` the
    cost model consults per call.
    """

    def __init__(self, name: str, ftype: FunctionType, impl: Callable, cost=1):
        super().__init__(ftype, name)
        self.ftype = ftype
        self.impl = impl
        self.cost = cost

    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    def __repr__(self) -> str:
        return f"<external {self.name}>"


class Module:
    """A compilation unit: named functions plus external declarations."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.externals: Dict[str, ExternalFunction] = {}
        #: Module-level metadata (e.g. the gang-batching layer stores its
        #: batch factor, per-loop rejection reasons, and the recipe for
        #: its unbatched twin here).  Cloned shallowly by ``clone_module``.
        self.attrs: Dict[str, object] = {}

    #: The unbatched trap-replay twin of this very module object, once a
    #: trap made ``repro.backend.batch.unbatched_twin`` compile it: like
    #: ``Function._emissions`` it is never cloned and never pickled.
    _unbatched_twin = None

    __getstate__ = thawed_state

    @property
    def frozen(self) -> bool:
        return type(self.functions) is MappingProxyType

    def freeze(self) -> "Module":
        """Seal this module against mutation — see the module docstring —
        and return it."""
        if self.frozen:
            return self
        for ext in self.externals.values():
            ext.uses = tuple(ext.uses)
        for function in self.functions.values():
            function._freeze()
        self.functions = MappingProxyType(self.functions)
        self.externals = MappingProxyType(self.externals)
        self.attrs = MappingProxyType(self.attrs)
        return self

    def require_mutable(self, what: str) -> None:
        """Entry check for whole-module transforms (pass pipelines, gang
        batching, legalization): refuse a frozen module up front instead
        of at whichever write the transform happens to reach first."""
        if self.frozen:
            raise FrozenModuleError(f"{what} on {self!r}")

    def add_function(self, func: Function) -> Function:
        self.require_mutable("add_function")
        if func.name in self.functions:
            raise ValueError(f"duplicate function name: {func.name}")
        self.functions[func.name] = func
        return func

    def add_external(self, ext: ExternalFunction) -> ExternalFunction:
        self.require_mutable("add_external")
        self.externals[ext.name] = ext
        return ext

    def get(self, name: str):
        if name in self.functions:
            return self.functions[name]
        if name in self.externals:
            return self.externals[name]
        raise KeyError(f"no function named {name!r} in module {self.name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.functions or name in self.externals

    def __repr__(self) -> str:
        return f"<module {self.name}: {list(self.functions)}>"
