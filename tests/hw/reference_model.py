"""A frozen copy of the exact-path hardware model, before the fused walk.

``test_fused_equivalence`` drives this model and :mod:`repro.hw` with the
same operation sequences and requires identical results, counters and
cache/TLB contents.  Do not edit it to follow later changes to
``repro.hw``: it is the reference the fused walk is held to.  Only the
exact line path is copied; the analytic and dispatch models did not
change.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.hw.counters import PerfCounters
from repro.hw.layout import DMA_BASE

HUGE_PAGE_SIZE = 2 * 1024 * 1024


class Cache:
    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64):
        if size % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.n_sets)]
        self._ddio_count: List[int] = [0] * self.n_sets
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        cset = self._sets[line_addr % self.n_sets]
        flag = cset.pop(line_addr, None)
        if flag is None:
            self.misses += 1
            return False
        self.hits += 1
        cset[line_addr] = flag
        return True

    def fill(self, line_addr: int, ddio: bool = False,
             ddio_ways: Optional[int] = None) -> Optional[int]:
        idx = line_addr % self.n_sets
        cset = self._sets[idx]
        if line_addr in cset:
            return None
        evicted = None
        if ddio and ddio_ways is not None and self._ddio_count[idx] >= ddio_ways:
            for line, is_ddio in cset.items():
                if is_ddio:
                    evicted = line
                    break
            if evicted is not None:
                del cset[evicted]
                self._ddio_count[idx] -= 1
        if evicted is None and len(cset) >= self.assoc:
            evicted = next(iter(cset))
            if cset.pop(evicted):
                self._ddio_count[idx] -= 1
        cset[line_addr] = ddio
        if ddio:
            self._ddio_count[idx] += 1
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        idx = line_addr % self.n_sets
        flag = self._sets[idx].pop(line_addr, None)
        if flag is None:
            return False
        if flag:
            self._ddio_count[idx] -= 1
        return True

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        for cset in self._sets:
            cset.clear()
        self._ddio_count = [0] * self.n_sets
        self.reset_stats()


class CacheHierarchy:
    L1, L2, LLC, DRAM = range(4)

    def __init__(self, params, n_cores: int = 1):
        self.params = params
        self.n_cores = n_cores
        self.l1 = [Cache("L1-%d" % c, params.l1_size, params.l1_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.l2 = [Cache("L2-%d" % c, params.l2_size, params.l2_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.llc = Cache("LLC", params.llc_size, params.llc_assoc, params.cache_line)

    def lookup(self, core: int, line_addr: int) -> int:
        if self.l1[core].access(line_addr):
            return self.L1
        if self.l2[core].access(line_addr):
            self.l1[core].fill(line_addr)
            return self.L2
        if self.llc.access(line_addr):
            self.l2[core].fill(line_addr)
            self.l1[core].fill(line_addr)
            return self.LLC
        self.llc.fill(line_addr)
        self.l2[core].fill(line_addr)
        self.l1[core].fill(line_addr)
        return self.DRAM

    def dma_write(self, line_addr: int) -> None:
        for core in range(self.n_cores):
            self.l1[core].invalidate(line_addr)
            self.l2[core].invalidate(line_addr)
        self.llc.fill(line_addr, ddio=True, ddio_ways=self.params.ddio_ways)

    def dma_read(self, line_addr: int) -> bool:
        return self.llc.access(line_addr)

    def flush(self) -> None:
        for cache in self.l1 + self.l2 + [self.llc]:
            cache.flush()


class _LruSet(OrderedDict):
    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def __reduce__(self):
        return (self.__class__, (self.capacity,), None, None, iter(self.items()))

    def access(self, page: int) -> bool:
        if page in self:
            self.move_to_end(page)
            return True
        self[page] = True
        if len(self) > self.capacity:
            self.popitem(last=False)
        return False


class Tlb:
    def __init__(self, params):
        self.params = params
        self._dtlb = _LruSet(params.dtlb_entries)
        self._stlb = _LruSet(params.stlb_entries)
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def access(self, page: int) -> float:
        self.accesses += 1
        if self._dtlb.access(page):
            return 0.0
        self.dtlb_misses += 1
        if self._stlb.access(page):
            return 0.0
        self.walks += 1
        return self.params.tlb_walk_ns

    def reset_stats(self) -> None:
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def flush(self) -> None:
        self._dtlb.clear()
        self._stlb.clear()
        self.reset_stats()


class MemorySystem:
    def __init__(self, params, n_cores: int = 1):
        self.params = params
        self.n_cores = n_cores
        self.hierarchy = CacheHierarchy(params, n_cores)
        self.tlbs = [Tlb(params) for _ in range(n_cores)]
        self.counters = [PerfCounters() for _ in range(n_cores)]

    def access(self, core: int, addr: int, size: int = 8,
               write: bool = False) -> Tuple[float, float]:
        params = self.params
        h = self.counters[core].handles
        line = params.cache_line
        first_line = addr // line
        last_line = (addr + size - 1) // line
        cycles = 0.0
        ns = 0.0
        page = -1
        for line_addr in range(first_line, last_line + 1):
            line_page = self._page_of(line_addr * line)
            if line_page != page:
                page = line_page
                ns += self.tlbs[core].access(page)
            level = self.hierarchy.lookup(core, line_addr)
            if level == CacheHierarchy.L1:
                h.l1_hits.value += 1
                cycles += params.l1_hit_cycles
            elif level == CacheHierarchy.L2:
                h.l2_hits.value += 1
                cycles += params.l2_hit_cycles
            elif level == CacheHierarchy.LLC:
                h.llc_loads.value += 1
                h.llc_hits.value += 1
                ns += params.llc_hit_ns / params.mlp
            else:
                h.llc_loads.value += 1
                h.llc_misses.value += 1
                ns += params.dram_ns / params.mlp
        h.dtlb_walks.value = self.tlbs[core].walks
        return cycles, ns

    def _page_of(self, addr: int) -> int:
        if addr >= DMA_BASE:
            return (1 << 40) + (addr - DMA_BASE) // HUGE_PAGE_SIZE
        return addr // self.params.page_size

    def prefetch(self, core: int, addr: int, size: int = 64) -> float:
        params = self.params
        line = params.cache_line
        hierarchy = self.hierarchy
        ns = 0.0
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            if hierarchy.l1[core].access(line_addr):
                continue
            if hierarchy.l2[core].access(line_addr):
                self.hierarchy.l1[core].fill(line_addr)
                continue
            if hierarchy.llc.access(line_addr):
                ns += params.llc_hit_ns / params.prefetch_mlp
            else:
                hierarchy.llc.fill(line_addr)
                ns += params.dram_ns / params.prefetch_mlp
            hierarchy.l2[core].fill(line_addr)
            hierarchy.l1[core].fill(line_addr)
        return ns

    def dma_write(self, addr: int, size: int) -> None:
        line = self.params.cache_line
        first_line = addr // line
        last_line = (addr + size - 1) // line
        for line_addr in range(first_line, last_line + 1):
            self.hierarchy.dma_write(line_addr)
        self.counters[0].handles.ddio_fills.value += last_line - first_line + 1

    def dma_read(self, addr: int, size: int) -> None:
        line = self.params.cache_line
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            self.hierarchy.dma_read(line_addr)

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
