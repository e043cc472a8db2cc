"""Virtual address-space layout and allocators.

PacketMill's static-graph optimization moves element objects from scattered
heap allocations into a contiguous ``.data``/``.bss`` segment.  To let that
choice have its real consequences (cache-set spread, pages touched, TLB
reach), element state, mbuf pools, and descriptor rings all get concrete
virtual addresses from this module.

The heap allocator deliberately fragments: real ``malloc`` interleaves
metadata and other allocations, so consecutive ``new``-ed elements land on
different pages.  The static allocator packs objects back to back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STATIC_BASE = 0x0060_0000  # .data/.bss
HEAP_BASE = 0x5555_5555_0000
DMA_BASE = 0x7F00_0000_0000  # hugepage region DPDK maps for mbufs/rings


@dataclass(frozen=True)
class Region:
    """A named allocated region of the simulated address space."""

    name: str
    base: int
    size: int
    kind: str  # "static" | "heap" | "dma"

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        if not 0 <= offset < self.size:
            raise ValueError(
                "offset %d outside region %s of size %d" % (offset, self.name, self.size)
            )
        return self.base + offset


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class AddressSpace:
    """Deterministic allocator over the simulated process address space."""

    def __init__(self, seed: int = 0, heap_fragmentation: float = 1.0,
                 offset: int = 0):
        """``heap_fragmentation`` scales the random padding between heap
        allocations; 0 makes the heap behave like the static segment.
        ``offset`` shifts every segment base -- used to give per-core
        replicas disjoint addresses within the shared cache hierarchy."""
        self._rng = random.Random(seed)
        self._static_next = STATIC_BASE + offset
        self._heap_next = HEAP_BASE + offset
        self._dma_next = DMA_BASE + offset
        self.heap_fragmentation = heap_fragmentation
        self.regions = []

    def alloc_static(self, name: str, size: int, align: int = 64) -> Region:
        """Pack an object into the static segment (contiguous, dense)."""
        base = _align_up(self._static_next, align)
        self._static_next = base + size
        return self._record(name, base, size, "static")

    def alloc_heap(self, name: str, size: int, align: int = 16) -> Region:
        """Allocate from the fragmented heap: allocator metadata plus a
        random gap separate consecutive allocations, scattering them over
        many pages (the dynamic-graph baseline)."""
        overhead = 32  # allocator header
        gap = 0
        if self.heap_fragmentation > 0:
            max_gap = int(4096 * self.heap_fragmentation)
            gap = self._rng.randrange(0, max_gap + 1)
        base = _align_up(self._heap_next + overhead + gap, align)
        self._heap_next = base + size
        return self._record(name, base, size, "heap")

    def alloc_dma(self, name: str, size: int, align: int = 64) -> Region:
        """Allocate from the hugepage DMA region (mbuf pools, NIC rings)."""
        base = _align_up(self._dma_next, align)
        self._dma_next = base + size
        return self._record(name, base, size, "dma")

    def _record(self, name: str, base: int, size: int, kind: str) -> Region:
        region = Region(name=name, base=base, size=size, kind=kind)
        self.regions.append(region)
        return region
