"""The memory system: TLB + cache hierarchy + DRAM, with cost accounting.

Costs come back split into the two clock domains (core cycles vs. uncore
nanoseconds); see :mod:`repro.hw` for why.  LLC/DRAM latencies are divided
by the memory-level-parallelism factor because batched packet processing
keeps several misses in flight.

For multi-megabyte random-access working sets (the WorkPackage element of
§4.4/§4.9) an exact line-by-line simulation would need hundreds of
thousands of warm-up accesses, so :meth:`MemorySystem.analytic_access`
provides the standard capacity model instead: a uniformly random access
into a footprint of ``S`` bytes hits a level of effective capacity ``C``
with probability ``min(1, C/S)``.  The hot path (descriptors, metadata,
element state, packet headers) is always simulated exactly.
"""

from __future__ import annotations

import enum
import random
from typing import Tuple

from repro.hw.cache import DRAM, L2, LLC, CacheHierarchy
from repro.hw.counters import PerfCounters
from repro.hw.layout import DMA_BASE
from repro.hw.tlb import Tlb

HUGE_PAGE_SIZE = 2 * 1024 * 1024


class AccessLevel(enum.IntEnum):
    L1 = 0
    L2 = 1
    LLC = 2
    DRAM = 3


class _Totals:
    """A core's running totals without the core, which
    :meth:`MemorySystem.access_ops` hands :meth:`MemorySystem.charge`."""

    __slots__ = ("params", "core_id", "instructions", "core_cycles",
                 "uncore_ns")

    def __init__(self, params):
        self.params = params
        self.core_id = 0
        self.instructions = 0.0
        self.core_cycles = 0.0
        self.uncore_ns = 0.0


class MemorySystem:
    """Shared memory system for ``n_cores`` simulated cores."""

    def __init__(self, params, n_cores: int = 1, seed: int = 0):
        self.params = params
        self.n_cores = n_cores
        self.hierarchy = CacheHierarchy(params, n_cores)
        self.tlbs = [Tlb(params) for _ in range(n_cores)]
        self.counters = [PerfCounters() for _ in range(n_cores)]
        self._rng = random.Random(seed)
        # Effective per-level capacities for the analytic capacity model.
        # L1/L2 shares account for hot-path pollution; the LLC share is the
        # DESIGN.md §5 anchor (total minus DDIO ways, code, and pools).
        self.l1_effective = params.l1_size // 2
        self.l2_effective = int(params.l2_size * 0.75)
        self.llc_effective = 14 * 1024 * 1024
        # footprint -> analytic_access's (p_l1, p_l2, p_llc).
        self._hit_odds = {}
        # The running totals :meth:`access_ops` charges in place of a core.
        self._totals = _Totals(params)

    # -- exact simulation ------------------------------------------------------

    def access(self, core: int, addr: int, size: int = 8,
               write: bool = False) -> Tuple[float, float]:
        """Access ``size`` bytes at ``addr``; returns (core_cycles, uncore_ns).

        One op through :meth:`access_ops`, from zero totals (``0.0 + x``
        is exactly ``x``).
        """
        return self.access_ops(core, ((0, 0, size, write),), (addr,), 0.0, 0.0)

    def access_ops(self, core: int, ops, bases, cycles: float,
                   ns: float) -> Tuple[float, float]:
        """Charge memory ops over one row of bases; returns the updated
        running ``(cycles, ns)``.

        One row through :meth:`charge`, with no compute charge: its
        ``0.0 / issue_ipc`` adds exactly nothing.  A walk that raises
        returns nothing, and the memo and ``dtlb_walks`` stand as the ops
        charged so far left them.
        """
        totals = self._totals
        totals.core_id = core
        totals.core_cycles = cycles
        totals.uncore_ns = ns
        self.charge(totals, 0.0, 0.0, ops, (), (bases,))
        return totals.core_cycles, totals.uncore_ns

    def charge(self, cpu, instructions: float, miss: float, ops, random_ops,
               rows, prefetch=(), dma_read: bool = False) -> None:
        """Charge one program to ``cpu`` once per row of base addresses.

        ``cpu`` is the core whose ``instructions``/``core_cycles``/
        ``uncore_ns`` totals the charge adds to, read at the start and
        stored at the end; its ``params`` price the compute.  Each row
        holds the bases the ops and prefetches index, and is charged in
        order, one packet at a time:

        1. each ``(target, size, skip_zero)`` prefetch: ``size`` bytes at
           ``row[target]`` pulled toward L1 (not issued when
           ``skip_zero`` and the base is 0), for one instruction,
           ``1 / issue_ipc`` cycles and its LLC/DRAM ns at
           ``prefetch_mlp``, with no events;
        2. with ``dma_read``, the NIC's DMA read of lines ``row[5]`` to
           ``row[6]`` (a transmitted frame), through
           :meth:`CacheHierarchy.dma_read`: no core-side cost or event,
           but each LLC hit is promoted;
        3. the compute: ``instructions`` and ``instructions / issue_ipc``
           cycles, then ``branch_miss_cycles * miss`` cycles and
           ``round(miss)`` branch misses;
        4. the memory ops ``(target, offset, size, write)``, each ``size``
           bytes at ``row[target] + offset``;
        5. the random ops ``(footprint, count)``, each ``count`` analytic
           accesses.

        These are the float operations, decisions and events of one
        ``CpuCore.prefetch`` per prefetch, the frame's ``Nic.transmit``
        DMA read and one per-packet program charge per row, in that order.

        Each cache line spanned counts as one load/store; the TLB is
        consulted once per page touched.  An op's cost is summed from
        ``0.0`` over its lines and then added to the running totals.  An
        op on one line (nearly all of them) takes no loop: that subtotal
        is the line's one cycle cost, or its walk ns plus its LLC/DRAM
        ns, since ``0.0 + x`` is exactly ``x``.

        Most lines hit in L1, so the L1 check is made here; a miss takes
        the full walk in :meth:`CacheHierarchy.lookup`, whose own L1 check
        then misses again without changing anything.  An op whose only
        line is the one this core's previous demand access ended on
        (``hierarchy.last_line[core]``) is charged as the L1 hit it is:
        that line is the MRU of its L1 set and its page is the TLB's last
        page, so the full walk would move nothing.  A prefetch clears
        that memo, as every ``lookup`` does.  A page in the DTLB is
        promoted here; :meth:`Tlb.access` is called only on a DTLB miss.

        A raise (a ``None`` base) in row ``k`` leaves rows before ``k``
        fully charged, and row ``k`` with the prefetches issued before the
        raise and, once they are all issued, its DMA read and compute
        charge, but none of its memory ops' costs.  The memo, the TLB's last page and
        ``dtlb_walks`` stand as the lines walked so far left them.
        """
        core = cpu.core_id
        params = self.params
        h = self.counters[core].handles
        l1_hits = h.l1_hits
        tlb = self.tlbs[core]
        dtlb = tlb._dtlb
        last_page = tlb.last_page
        hierarchy = self.hierarchy
        memo = hierarchy.last_line[core]
        l1 = hierarchy.l1[core]
        l1_sets = l1._sets
        n_sets = l1.n_sets
        line = params.cache_line
        page_size = params.page_size
        l1_hit_cycles = params.l1_hit_cycles
        compute = instructions / cpu.params.issue_ipc
        if miss:
            miss_cycles = cpu.params.branch_miss_cycles * miss
            miss_count = round(miss)
            branch_misses = h.branch_misses
        if dma_read:
            read = hierarchy.dma_read
        if prefetch:
            lookup = hierarchy.lookup
            prefetch_cycles = 1 / cpu.params.issue_ipc
            prefetch_llc_ns = params.llc_hit_ns / params.prefetch_mlp
            prefetch_dram_ns = params.dram_ns / params.prefetch_mlp
        done = cpu.instructions
        cycles = cpu.core_cycles
        ns = cpu.uncore_ns
        try:
            for bases in rows:
                if prefetch:
                    for target, size, skip_zero in prefetch:
                        addr = bases[target]
                        if skip_zero and not addr:
                            continue
                        fetch_ns = 0.0
                        for line_addr in range(addr // line,
                                               (addr + size - 1) // line + 1):
                            level = lookup(core, line_addr)
                            memo = None
                            if level == LLC:
                                fetch_ns += prefetch_llc_ns
                            elif level == DRAM:
                                fetch_ns += prefetch_dram_ns
                        done += 1
                        cycles += prefetch_cycles
                        ns += fetch_ns
                if dma_read:
                    read(bases[5], bases[6])
                done += instructions
                cycles += compute
                if miss:
                    cycles += miss_cycles
                    branch_misses.value += miss_count
                # The walk runs on copies, which become the totals only
                # when every op of the row is charged.
                walk_cycles = cycles
                walk_ns = ns
                for target, offset, size, _write in ops:
                    addr = bases[target] + offset
                    first_line = addr // line
                    last_line = (addr + size - 1) // line
                    if first_line == last_line:
                        if first_line == memo:
                            l1_hits.value += 1
                            walk_cycles += l1_hit_cycles
                            continue
                        memo = first_line
                        byte = first_line * line
                        if byte >= DMA_BASE:
                            page = (1 << 40) + (byte - DMA_BASE) // HUGE_PAGE_SIZE
                        else:
                            page = byte // page_size
                        # A TLB walk's ns is added to the line's LLC/DRAM
                        # ns first, as the op's subtotal would be.
                        tlb_ns = 0.0
                        if page != last_page:
                            if dtlb.pop(page, False):
                                dtlb[page] = True
                            else:
                                tlb_ns = tlb.access(page)
                            last_page = page
                        cset = l1_sets[first_line % n_sets]
                        flag = cset.pop(first_line, None)
                        if flag is not None:
                            cset[first_line] = flag
                            l1_hits.value += 1
                            walk_cycles += l1_hit_cycles
                            walk_ns += tlb_ns
                            continue
                        level = hierarchy.lookup(core, first_line)
                        if level == L2:
                            h.l2_hits.value += 1
                            walk_cycles += params.l2_hit_cycles
                            walk_ns += tlb_ns
                        elif level == LLC:
                            h.llc_loads.value += 1
                            h.llc_hits.value += 1
                            walk_ns += tlb_ns + params.llc_hit_ns / params.mlp
                        else:
                            h.llc_loads.value += 1
                            h.llc_misses.value += 1
                            walk_ns += tlb_ns + params.dram_ns / params.mlp
                        continue
                    if last_line < first_line:
                        continue  # no line touched (size <= 0): the memo stands
                    op_cycles = 0.0
                    op_ns = 0.0
                    for line_addr in range(first_line, last_line + 1):
                        byte = line_addr * line
                        if byte >= DMA_BASE:
                            # The DPDK DMA region is hugepage-backed (2 MB pages).
                            page = (1 << 40) + (byte - DMA_BASE) // HUGE_PAGE_SIZE
                        else:
                            page = byte // page_size
                        if page != last_page:
                            if dtlb.pop(page, False):
                                dtlb[page] = True
                            else:
                                op_ns += tlb.access(page)
                            last_page = page
                        cset = l1_sets[line_addr % n_sets]
                        flag = cset.pop(line_addr, None)
                        if flag is not None:
                            cset[line_addr] = flag
                            l1_hits.value += 1
                            op_cycles += l1_hit_cycles
                            continue
                        level = hierarchy.lookup(core, line_addr)
                        if level == L2:
                            h.l2_hits.value += 1
                            op_cycles += params.l2_hit_cycles
                        elif level == LLC:
                            h.llc_loads.value += 1
                            h.llc_hits.value += 1
                            op_ns += params.llc_hit_ns / params.mlp
                        else:
                            h.llc_loads.value += 1
                            h.llc_misses.value += 1
                            op_ns += params.dram_ns / params.mlp
                    walk_cycles += op_cycles
                    walk_ns += op_ns
                    memo = last_line
                cycles = walk_cycles
                ns = walk_ns
                if random_ops:
                    for footprint, count in random_ops:
                        for _ in range(count):
                            op_cycles, op_ns = self.analytic_access(core,
                                                                    footprint)
                            cycles += op_cycles
                            ns += op_ns
        finally:
            # Also on a raise: the totals then hold every charge made
            # before the raising row's walk, and the memo, the last page
            # and the walk count stand as the lines walked left them.
            cpu.instructions = done
            cpu.core_cycles = cycles
            cpu.uncore_ns = ns
            hierarchy.last_line[core] = memo
            tlb.last_page = last_page
            h.dtlb_walks.value = tlb.walks

    # -- analytic capacity model -----------------------------------------------

    def dispatch_access(self, core: int) -> Tuple[float, float]:
        """One dynamic-graph dispatch load (heap-resident, ASLR-scattered).

        Served per the calibrated locality mix in the machine parameters;
        see ``MachineParams.heap_dispatch_p_*`` for why this is an anchor
        rather than an emergent result.
        """
        params = self.params
        h = self.counters[core].handles
        u = self._rng.random()
        if u < params.heap_dispatch_p_dram:
            h.llc_loads.value += 1
            h.llc_misses.value += 1
            return 0.0, params.dram_ns / params.mlp
        if u < params.heap_dispatch_p_dram + params.heap_dispatch_p_llc:
            h.llc_loads.value += 1
            h.llc_hits.value += 1
            return 0.0, params.llc_hit_ns / params.mlp
        if u < (params.heap_dispatch_p_dram + params.heap_dispatch_p_llc
                + params.heap_dispatch_p_l2):
            h.l2_hits.value += 1
            return params.l2_hit_cycles, 0.0
        h.l1_hits.value += 1
        return params.l1_hit_cycles, 0.0

    def analytic_access(self, core: int, footprint: int) -> Tuple[float, float]:
        """One uniformly-random access into a ``footprint``-byte region.

        Its hit odds per level depend on the footprint alone, so they are
        computed on a footprint's first access and kept.
        """
        params = self.params
        h = self.counters[core].handles
        u = self._rng.random()
        odds = self._hit_odds.get(footprint)
        if odds is None:
            odds = self._hit_odds[footprint] = (
                min(1.0, self.l1_effective / footprint) if footprint else 1.0,
                min(1.0, self.l2_effective / footprint) if footprint else 1.0,
                min(1.0, self.llc_effective / footprint) if footprint else 1.0,
            )
        p_l1, p_l2, p_llc = odds
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

    def prefetch(self, core: int, addr: int, size: int = 64) -> float:
        """Software prefetch: pull lines toward L1 without a demand load.

        Returns the (deeply overlapped) exposed latency in ns.  Prefetches
        are not demand loads, so no LLC-load/miss events are counted --
        matching what ``perf`` sees when the MLX5 RX loop prefetches the
        packet data before the application touches it.  The PMD's
        prefetches are charged in :meth:`charge` at the same prices.
        """
        params = self.params
        line = params.cache_line
        lookup = self.hierarchy.lookup
        ns = 0.0
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            level = lookup(core, line_addr)
            if level == LLC:
                ns += params.llc_hit_ns / params.prefetch_mlp
            elif level == DRAM:
                ns += params.dram_ns / params.prefetch_mlp
        return ns

    # -- NIC DMA ------------------------------------------------------------------

    def dma_write(self, ranges) -> None:
        """NIC writes each ``(addr, size)`` range (packet data or
        descriptors) via DDIO, in order: one call per RX burst."""
        line = self.params.cache_line
        written = self.hierarchy.dma_write(
            [(addr // line, (addr + size - 1) // line) for addr, size in ranges])
        self.counters[0].handles.ddio_fills.value += written

    def dma_read(self, addr: int, size: int) -> None:
        """NIC reads ``size`` bytes for transmission (no core-side cost).

        The PMD's transmits read their frames inside :meth:`charge`
        (``dma_read=True``), one call per TX burst; this is the one-range
        form of the same read.
        """
        line = self.params.cache_line
        self.hierarchy.dma_read(addr // line, (addr + size - 1) // line)

    # -- housekeeping ---------------------------------------------------------------

    def registry_for(self, core: int):
        """The per-core counter registry backing ``counters[core]``.

        A build mounts this under ``cpu.`` in its own registry so the
        cache model's live handles and the build's telemetry read the
        same cells.
        """
        return self.counters[core].registry

    def reset_counters(self) -> None:
        for counters in self.counters:
            counters.reset()
        for tlb in self.tlbs:
            tlb.reset_stats()

    def flush(self) -> None:
        self.hierarchy.flush()
        for tlb in self.tlbs:
            tlb.flush()
        self.reset_counters()
