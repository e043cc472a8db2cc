"""Tests for the address-space allocators and perf counters."""

import pytest

from repro.hw.counters import PerfCounters
from repro.hw.layout import (
    DMA_BASE,
    HEAP_BASE,
    STATIC_BASE,
    AddressSpace,
    Region,
)


class TestRegion:
    def test_addr_within(self):
        region = Region("r", 1000, 64, "static")
        assert region.addr(0) == 1000
        assert region.addr(63) == 1063
        assert region.end == 1064

    def test_addr_out_of_range(self):
        region = Region("r", 1000, 64, "static")
        with pytest.raises(ValueError):
            region.addr(64)
        with pytest.raises(ValueError):
            region.addr(-1)


class TestAddressSpace:
    def test_static_allocations_are_contiguous(self):
        space = AddressSpace(seed=0)
        a = space.alloc_static("a", 64)
        b = space.alloc_static("b", 64)
        assert b.base == a.end  # dense packing, 64-B aligned

    def test_static_alignment(self):
        space = AddressSpace(seed=0)
        space.alloc_static("a", 10)
        b = space.alloc_static("b", 64)
        assert b.base % 64 == 0

    def test_heap_allocations_are_scattered(self):
        space = AddressSpace(seed=1)
        regions = [space.alloc_heap("e%d" % i, 128) for i in range(32)]
        gaps = [regions[i + 1].base - regions[i].end for i in range(31)]
        assert max(gaps) > 128  # fragmentation gaps present
        assert all(g >= 32 for g in gaps)  # at least allocator overhead

    def test_heap_fragmentation_zero_packs(self):
        space = AddressSpace(seed=1, heap_fragmentation=0.0)
        a = space.alloc_heap("a", 128)
        b = space.alloc_heap("b", 128)
        assert b.base - a.end <= 64  # only header + alignment

    def test_heap_is_deterministic_per_seed(self):
        bases_1 = [AddressSpace(seed=7).alloc_heap("x", 64).base for _ in range(1)]
        bases_2 = [AddressSpace(seed=7).alloc_heap("x", 64).base for _ in range(1)]
        assert bases_1 == bases_2

    def test_segment_bases(self):
        space = AddressSpace(seed=0)
        assert space.alloc_static("s", 8).base >= STATIC_BASE
        assert space.alloc_heap("h", 8).base >= HEAP_BASE
        assert space.alloc_dma("d", 8).base >= DMA_BASE

    def test_pages_spanned_static_vs_heap(self):
        """The static segment spans far fewer pages for the same objects."""
        space = AddressSpace(seed=3)
        static = [space.alloc_static("s%d" % i, 256) for i in range(16)]
        heap = [space.alloc_heap("h%d" % i, 256) for i in range(16)]

        def pages(regions):
            return {page for region in regions
                    for page in range(region.base // 4096,
                                      (region.end - 1) // 4096 + 1)}

        assert len(pages(static)) < len(pages(heap))

    def test_static_extent(self):
        space = AddressSpace(seed=0)
        a = space.alloc_static("a", 100)
        b = space.alloc_static("b", 100)
        assert b.end - a.base >= 200


class TestPerfCounters:
    def test_per_packet(self):
        counters = PerfCounters(llc_loads=500, packets=100)
        assert counters.per_packet("llc_loads") == 5.0

    def test_per_packet_requires_packets(self):
        with pytest.raises(ValueError):
            PerfCounters().per_packet("llc_loads")

    def test_per_window_scaling(self):
        counters = PerfCounters(llc_loads=100, packets=100)
        # 1 load/packet at 10 Mpps over 100 ms -> 1M loads per window.
        assert counters.per_window("llc_loads", pps=10e6) == pytest.approx(1e6)

    def test_miss_ratio(self):
        counters = PerfCounters(llc_loads=100, llc_misses=25)
        assert counters.llc_miss_ratio() == 0.25

    def test_miss_ratio_no_loads(self):
        assert PerfCounters().llc_miss_ratio() == 0.0

    def test_add_and_reset(self):
        a = PerfCounters(instructions=10, packets=1)
        b = PerfCounters(instructions=5, packets=2)
        a.add(b)
        assert a.instructions == 15
        assert a.packets == 3
        a.reset()
        assert a.instructions == 0

    def test_snapshot_round_trip(self):
        counters = PerfCounters(l1_hits=3)
        snap = counters.snapshot()
        assert snap["l1_hits"] == 3
        assert "llc_misses" in snap
