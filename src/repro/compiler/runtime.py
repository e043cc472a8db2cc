"""Execution of lowered cost programs against the hardware model.

:func:`execute_bases` charges one packet's worth of an :class:`ExecProgram`
to a :class:`~repro.hw.cpu.CpuCore`: issue bandwidth for the instruction
count, expected branch-miss penalties, and one cache-hierarchy access per
memory op, with the op's target tag resolved to one of the packet's base
addresses ``(meta, mbuf, descriptor, data, state)``.

Because it runs once per packet per element, the per-op work is
specialized: each program's memory ops are flattened once into a tuple of
``(target_index, offset, size, write)`` rows (cached on the program), and
the whole tuple goes, with the packet's base addresses, to
:meth:`~repro.hw.memory.MemorySystem.access_ops` in one call.  The
hardware model charges the rows in order and adds each op's cost to the
core's running totals, so the result is bit-identical to one ``access``
call per op -- which is what :func:`execute_interpreted`, the reference
walk over the lowered ``MemOp`` dataclasses, does.  Every build charges
its programs through :func:`execute_bases`.
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


def execute_bases(cpu, program: ExecProgram, meta: int, mbuf: int,
                  descriptor: int, data: int, state: int) -> None:
    """Charge one packet's execution with the base addresses unpacked.

    The entry point for the driver and PMD hot loops.  Identical charge
    sequence to :func:`execute_interpreted`.

    The compute and branch-miss charge is made here, with the float
    operations of ``CpuCore.charge_compute`` and then
    ``CpuCore.charge_branch_miss`` in their order, and stored on the core
    before the memory walk starts: a walk that raises leaves the same
    partial charge the two calls would.

    Memory and random ops charge no instructions (they were folded into
    ``program.instructions``), so their latency is added to the core
    directly, as the generated kernels do: ``CpuCore.mem_access`` with
    ``instructions=0.0`` would add ``cycles + 0.0 / ipc``, which is
    exactly ``cycles``.  All memory ops go to the hardware model in one
    :meth:`~repro.hw.memory.MemorySystem.access_ops` call, which adds
    each op's cost to the core's running totals in op order -- the same
    float additions as one ``access`` call per op.
    """
    params = cpu.params
    instructions = program.instructions
    cpu.instructions += instructions
    cycles = cpu.core_cycles + instructions / params.issue_ipc
    miss = program.branch_miss_expect
    if miss:
        cycles += params.branch_miss_cycles * miss
        handles = cpu.mem.counters[cpu.core_id].handles
        handles.branch_misses.value += round(miss)
    cpu.core_cycles = cycles
    try:
        ops = program._compiled_ops
    except AttributeError:
        ops = compiled_ops(program)
    if ops:
        cpu.core_cycles, cpu.uncore_ns = cpu.mem.access_ops(
            cpu.core_id, ops, (meta, mbuf, descriptor, data, state),
            cycles, cpu.uncore_ns)
    if program.random_ops:
        core_id = cpu.core_id
        analytic = cpu.mem.analytic_access
        for footprint, count in program.random_ops:
            for _ in range(count):
                cycles, ns = analytic(core_id, footprint)
                cpu.core_cycles += cycles
                cpu.uncore_ns += ns


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
