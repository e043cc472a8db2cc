"""Execution of lowered cost programs against the hardware model.

:func:`execute_bases` charges a burst of packets' worth of an
:class:`ExecProgram` to a :class:`~repro.hw.cpu.CpuCore`: issue bandwidth
for the instruction count, expected branch-miss penalties, and one
cache-hierarchy access per memory op, with the op's target tag resolved
to one of each packet's base addresses ``(meta, mbuf, descriptor, data,
state)``.

Because it runs once per element visit and per PMD burst, the per-op work
is specialized: each program's memory ops are flattened once into a tuple
of ``(target_index, offset, size, write)`` rows (cached on the program),
and the whole tuple goes, with every packet's base addresses, to
:meth:`~repro.hw.memory.MemorySystem.charge` in one call.  The hardware
model charges the packets and their rows in order and adds each op's
cost to the core's running totals, so the result is bit-identical to one
``access`` call per op and packet -- which is what
:func:`execute_interpreted`, the reference walk over the lowered ``MemOp``
dataclasses, does.  Every build charges its programs through
:func:`execute_bases`.
"""

from __future__ import annotations

from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
)

#: Target tag -> index into the (meta, mbuf, descriptor, data, state) tuple.
TARGET_INDEX = {
    TARGET_PACKET_META: 0,
    TARGET_PACKET_MBUF: 1,
    TARGET_DESCRIPTOR: 2,
    TARGET_DATA: 3,
    TARGET_STATE: 4,
}


def compiled_ops(program: ExecProgram):
    """The program's memory ops as ``(target_index, offset, size, write)``
    rows, computed once and cached on the program object."""
    try:
        return program._compiled_ops
    except AttributeError:
        ops = tuple(
            (TARGET_INDEX[op.target], op.offset, op.size, op.write)
            for op in program.mem_ops
        )
        program._compiled_ops = ops
        return ops


def execute_bases(cpu, program: ExecProgram, rows, prefetch=(),
                  dma_read: bool = False) -> None:
    """Charge ``program`` once per row of base addresses, in one call.

    Each row is one packet's ``(meta, mbuf, descriptor, data, state)``
    bases.  The whole burst goes to the hardware model in one
    :meth:`~repro.hw.memory.MemorySystem.charge` call, which charges each
    row in order: the optional ``prefetch`` rows ``(base index, bytes,
    skip a zero base)``, with ``dma_read`` the NIC's DMA read of the
    frame's lines ``row[5]`` to ``row[6]`` (the PMD's transmits), the
    program's compute and branch-miss charge, its memory ops and its
    random ops.  That is the float sequence of one ``CpuCore.prefetch``
    per prefetch, the frame's DMA read and :func:`execute_interpreted`
    per packet, so the result is bit-identical.

    A row that raises (a ``None`` base) leaves the rows before it fully
    charged, and itself with its prefetches and compute charge but none of
    its memory costs.
    """
    try:
        ops = program._compiled_ops
    except AttributeError:
        ops = compiled_ops(program)
    cpu.mem.charge(cpu, program.instructions, program.branch_miss_expect,
                   ops, program.random_ops, rows, prefetch, dma_read)


def execute_interpreted(cpu, program: ExecProgram, meta: int, mbuf: int,
                        descriptor: int, data: int, state: int) -> None:
    """The reference interpreter: walk the lowered ops per packet.

    Resolves every :class:`~repro.compiler.lower.MemOp` through attribute
    access and a target-tag dict lookup on each packet, and charges it
    through one ``CpuCore.mem_access`` call -- the reference semantics
    :func:`execute_bases` and the generated kernels must stay
    bit-identical to.
    """
    cpu.charge_compute(program.instructions)
    if program.branch_miss_expect:
        cpu.charge_branch_miss(program.branch_miss_expect)
    bases = (meta, mbuf, descriptor, data, state)
    for op in program.mem_ops:
        cpu.mem_access(bases[TARGET_INDEX[op.target]] + op.offset,
                       op.size, op.write, 0.0)
    for footprint, count in program.random_ops:
        for _ in range(count):
            cpu.random_access(footprint, 0.0)


__all__ = [
    "TARGET_INDEX",
    "compiled_ops",
    "execute_bases",
    "execute_interpreted",
]
