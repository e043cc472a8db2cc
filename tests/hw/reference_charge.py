"""A frozen copy of the per-packet charge, before ``execute_bases`` made
the CPU charge itself and took a whole burst in one call.

``test_charge_equivalence`` charges the same programs through
:func:`repro.compiler.runtime.execute_bases` and through :func:`charge`
(or :func:`rx_charge`) once per packet, and requires bit-identical core
totals, counters and model state.  Do not edit it to follow later changes
to ``execute_bases``: it is the reference that function is held to.

The sequence is ``CpuCore.charge_compute``, then
``CpuCore.charge_branch_miss`` (both written out, so a change to those
methods cannot move the reference), one ``MemorySystem.access`` per
memory row added to running totals that are stored on the core after the
last row, then one ``MemorySystem.analytic_access`` per random op
(written out as :func:`analytic_access`), added to the core as it
returns.

:func:`rx_charge` is the PMD's per-packet receive sequence: four
``CpuCore.prefetch`` calls (the CQE, the rte_mbuf unless its address is
0, the metadata and the packet data), written out with
``MemorySystem.prefetch`` as :func:`prefetch`, then :func:`charge`.

The NIC side is frozen per frame, as it was before its charges took a
whole burst: :func:`dma_write` is one frame's (or one CQE's) DDIO write,
:func:`transmit` is ``Nic.transmit`` with its own DMA read of the frame
(:func:`dma_read`), made before the frame's TX :func:`charge`, and
:func:`mem_access` is ``CpuCore.mem_access``, which the mempool made once
per get and per put at the freelist head.
"""

from __future__ import annotations

from repro.compiler.runtime import TARGET_INDEX
from repro.hw.cache import DRAM, LLC


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
            op_cycles, op_ns = analytic_access(mem, core, footprint)
            cpu.core_cycles += op_cycles
            cpu.uncore_ns += op_ns


def analytic_access(mem, core, footprint):
    # MemorySystem.analytic_access, computing the hit odds on every call
    params = mem.params
    h = mem.counters[core].handles
    u = mem._rng.random()
    p_l1 = min(1.0, mem.l1_effective / footprint) if footprint else 1.0
    p_l2 = min(1.0, mem.l2_effective / footprint) if footprint else 1.0
    p_llc = min(1.0, mem.llc_effective / footprint) if footprint else 1.0
    if u < p_l1:
        h.l1_hits.value += 1
        return params.l1_hit_cycles, 0.0
    if u < p_l2:
        h.l2_hits.value += 1
        return params.l2_hit_cycles, 0.0
    h.llc_loads.value += 1
    if u < p_llc:
        h.llc_hits.value += 1
        return 0.0, params.llc_hit_ns / params.random_access_mlp
    h.llc_misses.value += 1
    return 0.0, params.dram_ns / params.random_access_mlp


def prefetch(cpu, addr, size) -> None:
    # MemorySystem.prefetch
    mem = cpu.mem
    params = mem.params
    line = params.cache_line
    ns = 0.0
    for line_addr in range(addr // line, (addr + size - 1) // line + 1):
        level = mem.hierarchy.lookup(cpu.core_id, line_addr)
        if level == LLC:
            ns += params.llc_hit_ns / params.prefetch_mlp
        elif level == DRAM:
            ns += params.dram_ns / params.prefetch_mlp
    # CpuCore.prefetch
    cpu.instructions += 1
    cpu.core_cycles += 1 / cpu.params.issue_ipc
    cpu.uncore_ns += ns


def rx_charge(cpu, program, meta, mbuf, descriptor, data, state) -> None:
    prefetch(cpu, descriptor, 64)
    if mbuf:
        prefetch(cpu, mbuf, 128)
    prefetch(cpu, meta, 128)
    prefetch(cpu, data, 128)
    charge(cpu, program, meta, mbuf, descriptor, data, state)


def dma_write(mem, addr, size) -> None:
    # MemorySystem.dma_write and CacheHierarchy.dma_write of one range
    line = mem.params.cache_line
    first_line = addr // line
    last_line = (addr + size - 1) // line
    hierarchy = mem.hierarchy
    memo = hierarchy.last_line
    for core, line_addr in enumerate(memo):
        if line_addr is not None and first_line <= line_addr <= last_line:
            memo[core] = None
    for line_addr in range(first_line, last_line + 1):
        for cache in hierarchy.l1 + hierarchy.l2:
            cache._sets[line_addr % cache.n_sets].pop(line_addr, None)
        hierarchy.llc.fill(line_addr, True, mem.params.ddio_ways)
    mem.counters[0].handles.ddio_fills.value += last_line - first_line + 1


def dma_read(mem, addr, size) -> None:
    # MemorySystem.dma_read and CacheHierarchy.dma_read
    line = mem.params.cache_line
    llc = mem.hierarchy.llc
    for line_addr in range(addr // line, (addr + size - 1) // line + 1):
        cset = llc._sets[line_addr % llc.n_sets]
        flag = cset.pop(line_addr, None)
        if flag is not None:
            cset[line_addr] = flag


def transmit(nic, ref, frame_len) -> int:
    # Nic.transmit, reading the frame itself
    slot = nic.tx_ring.push(ref)
    dma_read(nic.mem, ref.data_addr, frame_len)
    nic.tx_sent += 1
    nic.tx_bytes += frame_len
    return nic.tx_ring.slot_addr(slot)


def mem_access(cpu, addr, size, write, instructions) -> None:
    # CpuCore.mem_access
    cycles, ns = cpu.mem.access(cpu.core_id, addr, size, write)
    cpu.instructions += instructions
    cpu.core_cycles += cycles + instructions / cpu.params.issue_ipc
    cpu.uncore_ns += ns
