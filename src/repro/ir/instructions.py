"""IR instructions.

A single generic ``Instruction`` class covers all opcodes; behaviour is
table-driven (the interpreter, verifier, printer, and the Parsimony
vectorizer all dispatch on ``opcode``).  This mirrors how the paper's pass
treats LLVM IR: a small, closed instruction set transformed case-by-case
(§4.2.3).

Opcode categories
-----------------

* integer binops: ``add sub mul sdiv udiv srem urem and or xor shl lshr
  ashr smin smax umin umax`` plus the "SIMD-flavoured" integer ops the Simd
  Library's hand-written kernels rely on: saturating ``addsat_s addsat_u
  subsat_s subsat_u``, ``mulhi_s mulhi_u`` (multiply, return upper half —
  called out in paper §7), rounding average ``avg_u`` and absolute
  difference ``abd_u``.
* float binops: ``fadd fsub fmul fdiv frem fmin fmax``
* unary: ``fneg fabs fsqrt iabs not``
* compares: ``icmp`` (attr ``pred`` in eq ne slt sle sgt sge ult ule ugt
  uge) and ``fcmp`` (attr ``pred`` in oeq one olt ole ogt oge)
* casts: ``trunc zext sext fptrunc fpext fptosi fptoui sitofp uitofp
  bitcast ptrtoint inttoptr``
* memory: ``alloca load store gep atomicrmw``
* vector (post-vectorization): ``broadcast extractelement insertelement
  shuffle shuffle2 vload vstore gather scatter sad`` and horizontal
  reductions ``reduce_add reduce_min_s reduce_min_u reduce_max_s
  reduce_max_u reduce_and reduce_or``, mask tests ``mask_any mask_all``
* control: ``br condbr ret``
* other: ``phi select call fma``

Memory-access masking follows the paper: *arithmetic* runs unmasked (phi →
select at join points keeps inactive lanes from clobbering live values),
while all vector *memory* accesses carry an explicit ``i1`` mask operand so
inactive lanes neither fault nor clobber memory (§4.2.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..diagnostics import FrozenModuleError
from .types import Type, VOID
from .values import Value

__all__ = [
    "Instruction",
    "INT_BINOPS",
    "FLOAT_BINOPS",
    "UNARY_OPS",
    "CAST_OPS",
    "VECTOR_MEM_OPS",
    "REDUCE_OPS",
    "TERMINATORS",
    "ATOMIC_RMW_OPS",
    "ICMP_PREDS",
    "FCMP_PREDS",
    "COMMUTATIVE_OPS",
]

INT_BINOPS = frozenset(
    """add sub mul sdiv udiv srem urem and or xor shl lshr ashr
       smin smax umin umax addsat_s addsat_u subsat_s subsat_u
       mulhi_s mulhi_u avg_u abd_u""".split()
)
FLOAT_BINOPS = frozenset("fadd fsub fmul fdiv frem fmin fmax".split())
UNARY_OPS = frozenset("fneg fabs fsqrt iabs not".split())
CAST_OPS = frozenset(
    """trunc zext sext fptrunc fpext fptosi fptoui sitofp uitofp
       bitcast ptrtoint inttoptr""".split()
)
VECTOR_MEM_OPS = frozenset("vload vstore gather scatter".split())
REDUCE_OPS = frozenset(
    "reduce_add reduce_min_s reduce_min_u reduce_max_s reduce_max_u reduce_and reduce_or".split()
)
TERMINATORS = frozenset("br condbr ret unreachable".split())

#: Ops accepted by ``atomicrmw`` — every one is also a scalar integer binop,
#: so the VM can evaluate the read-modify-write through the binop tables.
ATOMIC_RMW_OPS = frozenset("add sub and or xor umax umin smax smin".split())

ICMP_PREDS = frozenset("eq ne slt sle sgt sge ult ule ugt uge".split())
FCMP_PREDS = frozenset("oeq one olt ole ogt oge".split())

COMMUTATIVE_OPS = frozenset(
    """add mul and or xor smin smax umin umax addsat_s addsat_u
       mulhi_s mulhi_u avg_u abd_u fadd fmul fmin fmax""".split()
)


class Instruction(Value):
    """A single IR instruction.

    Operands are held in a private list with def-use bookkeeping: mutating
    them must go through ``set_operand`` so that ``Value.uses`` stays
    consistent and ``replace_all_uses_with`` works.  ``Module.freeze``
    seals the list (and ``uses`` and ``attrs``); the mutators then raise
    :class:`~repro.diagnostics.FrozenModuleError`.
    """

    def __init__(
        self,
        opcode: str,
        type: Type,
        operands: List[Value],
        name: str = "",
        attrs: Optional[Dict] = None,
    ):
        super().__init__(type, name)
        self.opcode = opcode
        self.attrs: Dict = dict(attrs or {})
        self.parent = None  # set when inserted into a BasicBlock
        self._operands: List[Value] = []
        for op in operands:
            self._append_operand(op)

    @classmethod
    def copy_of(cls, source: "Instruction", operands: List[Value],
                name: str) -> "Instruction":
        """A detached copy of ``source`` over ``operands`` (taken over, not
        copied).  For cloners: the operands stand in for ones ``source``
        already holds, so they are not validated a second time."""
        new = cls.__new__(cls)
        Value.__init__(new, source.type, name)
        new.opcode = source.opcode
        new.attrs = dict(source.attrs)
        new.parent = None
        new._operands = operands
        for idx, op in enumerate(operands):
            op.uses.append((new, idx))
        return new

    # -- operand/use management --------------------------------------------------

    @property
    def operands(self) -> tuple:
        return tuple(self._operands)

    def _refuse(self, what: str) -> None:
        function = getattr(self.parent, "parent", None)
        raise FrozenModuleError(
            f"{what} on {self!r}",
            function=getattr(function, "name", ""),
            instruction=self.name,
        )

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.opcode} is not a Value: {value!r}")
        if type(self._operands) is tuple:
            self._refuse("append_operand")
        idx = len(self._operands)
        self._operands.append(value)
        value.uses.append((self, idx))

    def set_operand(self, idx: int, value: Value) -> None:
        if type(self._operands) is tuple:
            self._refuse("set_operand")
        old = self._operands[idx]
        old.uses.remove((self, idx))
        self._operands[idx] = value
        value.uses.append((self, idx))

    def append_operand(self, value: Value) -> None:
        """Add an operand at the end (used when extending phis)."""
        self._append_operand(value)

    def drop_operands(self) -> None:
        """Remove this instruction from the use lists of its operands."""
        if type(self._operands) is tuple:
            self._refuse("drop_operands")
        for idx, op in enumerate(self._operands):
            op.uses.remove((self, idx))
        self._operands = []

    def erase(self) -> None:
        """Unlink from the parent block and drop all operand uses."""
        if type(self._operands) is tuple:
            self._refuse("erase")
        if self.uses:
            raise RuntimeError(
                f"erasing {self.opcode} '{self.name}' which still has uses"
            )
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_operands()

    # -- classification -----------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_binop(self) -> bool:
        return self.opcode in INT_BINOPS or self.opcode in FLOAT_BINOPS

    @property
    def is_cast(self) -> bool:
        return self.opcode in CAST_OPS

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    @property
    def has_side_effects(self) -> bool:
        """True if the instruction may write memory or transfer control."""
        return self.opcode in (
            "store",
            "vstore",
            "scatter",
            "call",
            "atomicrmw",
            "br",
            "condbr",
            "ret",
            "unreachable",
        )

    # -- phi helpers ---------------------------------------------------------------

    def phi_incoming(self):
        """Yield ``(value, block)`` pairs for a phi instruction."""
        assert self.opcode == "phi"
        ops = self._operands
        for i in range(0, len(ops), 2):
            yield ops[i], ops[i + 1]

    def phi_value_for(self, block) -> Value:
        """The incoming value flowing in from predecessor ``block``."""
        for value, pred in self.phi_incoming():
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from block {block.name}")

    # -- control-flow helpers --------------------------------------------------------

    def successors(self):
        """Successor blocks for a terminator instruction."""
        if self.opcode == "br":
            return [self._operands[0]]
        if self.opcode == "condbr":
            return [self._operands[1], self._operands[2]]
        return []

    def __repr__(self) -> str:
        name = self.name or "?"
        return f"<{self.opcode} %{name}>"
