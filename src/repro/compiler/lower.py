"""Lowering: resolve IR programs into compact executable cost programs.

After the passes run, each element's :class:`~repro.compiler.ir.Program`
is lowered against the *active* struct layouts into an
:class:`ExecProgram`: a flat bundle of per-packet instruction counts,
expected branch misses, and concrete memory operations (region tag +
offset + size).  The run-time driver executes ExecPrograms against the
hardware model without any further symbol resolution -- the moral
equivalent of machine code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    DirectCall,
    FieldAccess,
    ParamRead,
    PoolOp,
    Program,
    RandomAccess,
    StateAccess,
    VirtualCall,
)
from repro.compiler.structlayout import LayoutRegistry

# Memory-op target tags, resolved to base addresses at execution time.
TARGET_PACKET_META = "packet_meta"
TARGET_PACKET_MBUF = "packet_mbuf"
TARGET_DESCRIPTOR = "descriptor"
TARGET_STATE = "state"
TARGET_DATA = "data"

VALID_TARGETS = frozenset(
    {TARGET_PACKET_META, TARGET_PACKET_MBUF, TARGET_DESCRIPTOR, TARGET_STATE, TARGET_DATA}
)


@dataclass(frozen=True)
class MemOp:
    """One resolved per-packet memory access."""

    target: str
    offset: int
    size: int
    write: bool = False


@dataclass
class ExecProgram:
    """The lowered per-packet cost program of one element."""

    name: str
    instructions: float = 0.0
    branch_miss_expect: float = 0.0
    virtual_calls: int = 0
    mem_ops: List[MemOp] = field(default_factory=list)
    random_ops: List[Tuple[int, int]] = field(default_factory=list)  # (footprint, count)
    pool_gets: int = 0
    pool_puts: int = 0


def lower(program: Program, registry: LayoutRegistry) -> ExecProgram:
    """Resolve one IR program against the active layouts."""
    out = ExecProgram(name=program.name)
    for op in program.ops:
        if isinstance(op, Compute):
            out.instructions += op.instructions
        elif isinstance(op, FieldAccess):
            if op.target not in VALID_TARGETS:
                raise ValueError("unknown access target %r" % op.target)
            offset, size = registry.resolve(op.struct, op.fieldname)
            out.mem_ops.append(MemOp(op.target, offset, size, op.write))
            out.instructions += 1
        elif isinstance(op, DataAccess):
            out.mem_ops.append(MemOp(TARGET_DATA, op.offset, op.size, op.write))
            out.instructions += 1
        elif isinstance(op, StateAccess):
            out.mem_ops.append(MemOp(TARGET_STATE, op.offset, op.size, op.write))
            out.instructions += 1
        elif isinstance(op, ParamRead):
            out.mem_ops.append(MemOp(TARGET_STATE, op.offset, op.size, False))
            out.instructions += 1 + op.folded_instructions
        elif isinstance(op, VirtualCall):
            out.branch_miss_expect += op.miss_rate
            out.instructions += op.overhead_instructions
            out.virtual_calls += 1
        elif isinstance(op, DirectCall):
            out.instructions += op.overhead_instructions
        elif isinstance(op, BranchHint):
            out.branch_miss_expect += op.miss_rate
            out.instructions += 1
        elif isinstance(op, RandomAccess):
            out.random_ops.append((op.footprint, op.count))
            out.instructions += 2 * op.count  # address generation
        elif isinstance(op, PoolOp):
            out.instructions += op.instructions
            if op.kind == "get":
                out.pool_gets += 1
            elif op.kind == "put":
                out.pool_puts += 1
            else:
                raise ValueError("unknown pool op kind %r" % op.kind)
        else:
            raise TypeError("cannot lower op %r" % (op,))
    return out
