"""A frozen copy of the per-program charge, before ``execute_bases`` made
the CPU charge itself.

``test_charge_equivalence`` charges the same programs through
:func:`repro.compiler.runtime.execute_bases` and through :func:`charge`
and requires bit-identical core totals, counters and model state.  Do not
edit it to follow later changes to ``execute_bases``: it is the reference
that function is held to.

The sequence is ``CpuCore.charge_compute``, then
``CpuCore.charge_branch_miss`` (both written out, so a change to those
methods cannot move the reference), one ``MemorySystem.access`` per
memory row added to running totals that are stored on the core after the
last row, then one ``analytic_access`` per random op, added to the core
as it returns.
"""

from __future__ import annotations

from repro.compiler.runtime import TARGET_INDEX


def charge(cpu, program, meta, mbuf, descriptor, data, state) -> None:
    params = cpu.params
    mem = cpu.mem
    core = cpu.core_id
    instructions = program.instructions
    miss = program.branch_miss_expect
    # charge_compute
    cpu.instructions += instructions
    cpu.core_cycles += instructions / params.issue_ipc
    # charge_branch_miss
    if miss:
        cpu.core_cycles += params.branch_miss_cycles * miss
        mem.counters[core].handles.branch_misses.value += round(miss)
    bases = (meta, mbuf, descriptor, data, state)
    cycles = cpu.core_cycles
    ns = cpu.uncore_ns
    for op in program.mem_ops:
        addr = bases[TARGET_INDEX[op.target]] + op.offset
        op_cycles, op_ns = mem.access(core, addr, op.size, op.write)
        cycles += op_cycles
        ns += op_ns
    cpu.core_cycles = cycles
    cpu.uncore_ns = ns
    for footprint, count in program.random_ops:
        for _ in range(count):
            op_cycles, op_ns = mem.analytic_access(core, footprint)
            cpu.core_cycles += op_cycles
            cpu.uncore_ns += op_ns
