"""Tests for the set-associative cache and the DDIO-aware hierarchy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.cache import Cache, CacheHierarchy
from repro.hw.params import MachineParams


def small_cache(size=1024, assoc=2, line=64):
    return Cache("test", size, assoc, line)


class TestCache:
    def test_geometry(self):
        cache = small_cache(size=1024, assoc=2, line=64)
        assert cache.n_sets == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 64)

    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(5) is False
        cache.fill(5)
        assert cache.access(5) is True
        assert cache.access(6) is False

    def test_lru_eviction(self):
        cache = small_cache(size=256, assoc=2, line=64)  # 2 sets
        # Lines 0, 2, 4 all map to set 0 (even line numbers).
        cache.fill(0)
        cache.fill(2)
        evicted = cache.fill(4)
        assert evicted == 0
        assert not cache.contains(0)
        assert cache.contains(2)
        assert cache.contains(4)

    def test_access_refreshes_lru(self):
        cache = small_cache(size=256, assoc=2, line=64)
        cache.fill(0)
        cache.fill(2)
        cache.access(0)  # 0 becomes MRU; 2 is now LRU
        assert cache.fill(4) == 2

    def test_fill_is_idempotent_for_resident_line(self):
        cache = small_cache()
        cache.fill(7)
        assert cache.fill(7) is None
        assert cache.occupancy() == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(9)
        assert cache.invalidate(9)
        assert not cache.contains(9)
        assert not cache.invalidate(9)

    def test_flush_clears_contents(self):
        cache = small_cache()
        cache.fill(1)
        assert cache.access(1)
        cache.flush()
        assert cache.occupancy() == 0
        assert not cache.access(1)

    def test_ddio_way_restriction(self):
        """DDIO fills may not evict application lines beyond their quota."""
        cache = small_cache(size=256, assoc=4, line=64)  # 1 set of 4 ways... no: 256/(4*64)=1
        app_lines = [0, 1]
        for line in app_lines:
            cache.fill(line)
        # Two DDIO fills take the remaining ways; quota is 2.
        cache.fill(10, ddio=True, ddio_ways=2)
        cache.fill(11, ddio=True, ddio_ways=2)
        # A third DDIO fill must displace a DDIO line, not an app line.
        evicted = cache.fill(12, ddio=True, ddio_ways=2)
        assert evicted == 10
        for line in app_lines:
            assert cache.contains(line)

    def test_ddio_fill_without_quota_behaves_like_normal_fill(self):
        cache = small_cache(size=256, assoc=2, line=64)
        cache.fill(0)
        cache.fill(2)
        assert cache.fill(4, ddio=True, ddio_ways=None) == 0

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(size=512, assoc=2, line=64)
        for line in range(100):
            cache.fill(line)
        assert cache.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_occupancy_invariant_property(self, lines):
        cache = small_cache(size=512, assoc=2, line=64)
        for line in lines:
            if not cache.access(line):
                cache.fill(line)
        assert cache.occupancy() <= cache.assoc * cache.n_sets
        # Every line just accessed again must now hit.
        assert cache.access(lines[-1])

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=100))
    def test_repeat_access_hits_within_assoc_property(self, lines):
        """A working set smaller than one way per set never self-evicts."""
        cache = Cache("t", 64 * 32, 32, 64)  # fully associative, 32 lines
        distinct = list(dict.fromkeys(lines))[:32]
        for line in distinct:
            cache.fill(line)
        for line in distinct:
            assert cache.access(line)


class TestCacheHierarchy:
    def _hier(self, n_cores=1):
        params = MachineParams()
        return CacheHierarchy(params, n_cores)

    def test_first_access_misses_to_dram(self):
        hier = self._hier()
        assert hier.lookup(0, 100) == CacheHierarchy.DRAM

    def test_second_access_hits_l1(self):
        hier = self._hier()
        hier.lookup(0, 100)
        assert hier.lookup(0, 100) == CacheHierarchy.L1

    def test_l1_eviction_falls_back_to_l2(self):
        hier = self._hier()
        params = hier.params
        lines_in_l1 = params.l1_size // params.cache_line
        hier.lookup(0, 0)
        # Thrash L1 with lines mapping across all sets, several times over.
        for line in range(1, lines_in_l1 * 3 + 1):
            hier.lookup(0, line)
        assert hier.lookup(0, 0) in (CacheHierarchy.L2, CacheHierarchy.LLC)

    def test_cross_core_sharing_via_llc(self):
        hier = self._hier(n_cores=2)
        hier.lookup(0, 42)
        assert hier.lookup(1, 42) == CacheHierarchy.LLC

    def test_dma_write_invalidates_core_caches(self):
        hier = self._hier()
        hier.lookup(0, 7)  # now in L1/L2/LLC
        hier.dma_write([(7, 7)])
        # The line must be served from LLC (DDIO), not stale L1.
        assert hier.lookup(0, 7) == CacheHierarchy.LLC

    def test_dma_read_hits_after_fill(self):
        hier = self._hier()
        hier.dma_write([(13, 13)])
        assert hier.dma_read(13, 13) == 1

    def test_dma_read_miss_when_absent(self):
        hier = self._hier()
        assert hier.dma_read(999, 999) == 0

    def test_flush(self):
        hier = self._hier()
        hier.lookup(0, 5)
        hier.flush()
        assert hier.lookup(0, 5) == CacheHierarchy.DRAM
