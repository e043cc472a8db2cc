"""Tests for the memory system, TLB, and cost accounting."""

import pytest

from repro.hw.cpu import CpuCore
from repro.hw.memory import MemorySystem
from repro.hw.params import MB, MachineParams
from repro.hw.tlb import Tlb


class TestTlb:
    def test_first_access_walks(self):
        tlb = Tlb(MachineParams())
        assert tlb.access(1) > 0
        assert tlb.walks == 1

    def test_second_access_free(self):
        tlb = Tlb(MachineParams())
        tlb.access(1)
        assert tlb.access(1) == 0.0
        assert tlb.walks == 1

    def test_dtlb_capacity_spill_to_stlb(self):
        params = MachineParams()
        tlb = Tlb(params)
        for page in range(params.dtlb_entries + 10):
            tlb.access(page)
        # Page 0 fell out of the DTLB but is still in the STLB: no walk.
        walks_before = tlb.walks
        assert tlb.access(0) == 0.0
        assert tlb.walks == walks_before

    def test_stlb_capacity_walk(self):
        params = MachineParams()
        tlb = Tlb(params)
        for page in range(params.stlb_entries + 10):
            tlb.access(page)
        assert tlb.access(0) == params.tlb_walk_ns

    def test_flush(self):
        tlb = Tlb(MachineParams())
        tlb.access(1)
        tlb.flush()
        assert tlb.access(1) > 0


class TestMemorySystem:
    def _mem(self, **kwargs):
        return MemorySystem(MachineParams(), **kwargs)

    def test_cold_access_charges_dram(self):
        mem = self._mem()
        cycles, ns = mem.access(0, 0x1000, 8)
        params = mem.params
        assert ns >= params.dram_ns / params.mlp
        assert mem.counters[0].llc_misses == 1

    def test_warm_access_is_l1(self):
        mem = self._mem()
        mem.access(0, 0x1000, 8)
        cycles, ns = mem.access(0, 0x1000, 8)
        assert cycles == mem.params.l1_hit_cycles
        assert mem.counters[0].l1_hits == 1

    def test_straddling_access_touches_two_lines(self):
        mem = self._mem()
        mem.access(0, 0x1000 + 60, 8)  # crosses a 64-B boundary
        assert mem.counters[0].llc_misses == 2

    def test_access_within_line_touches_one(self):
        mem = self._mem()
        mem.access(0, 0x1000, 64)
        assert mem.counters[0].llc_misses == 1

    def test_dma_write_makes_llc_hit(self):
        mem = self._mem()
        mem.access(0, 0x2F00, 8)  # warm the TLB for this page
        mem.reset_counters()
        mem.dma_write([(0x2000, 128)])
        cycles, ns = mem.access(0, 0x2000, 8)
        assert mem.counters[0].llc_hits == 1
        assert mem.counters[0].llc_misses == 0
        assert ns == mem.params.llc_hit_ns / mem.params.mlp

    def test_ddio_fill_counter(self):
        mem = self._mem()
        mem.dma_write([(0x2000, 256)])
        assert mem.counters[0].ddio_fills == 4

    def test_flush_resets_everything(self):
        mem = self._mem()
        mem.access(0, 0x1000, 8)
        mem.flush()
        assert mem.counters[0].llc_misses == 0
        _, ns = mem.access(0, 0x1000, 8)
        assert mem.counters[0].llc_misses == 1

    def _memo_on(self, mem, addr):
        """Access ``addr`` twice; the second is the same-line shortcut."""
        mem.access(0, addr, 8)
        line = addr // mem.params.cache_line
        assert mem.hierarchy.last_line[0] == line
        mem.reset_counters()
        assert mem.access(0, addr, 8) == (mem.params.l1_hit_cycles, 0.0)
        assert mem.counters[0].l1_hits == 1
        return line

    def test_dma_write_of_the_memo_line_forces_the_full_walk(self):
        mem = self._mem(n_cores=2)
        line = self._memo_on(mem, 0x1000)
        mem.dma_write([(0x1000, 8)])
        assert mem.hierarchy.last_line[0] is None
        _, ns = mem.access(0, 0x1000, 8)
        assert mem.counters[0].llc_hits == 1
        assert ns == mem.params.llc_hit_ns / mem.params.mlp
        assert mem.hierarchy.last_line[0] == line

    def test_prefetch_into_the_same_l1_set_forces_the_full_walk(self):
        mem = self._mem()
        params = mem.params
        self._memo_on(mem, 0x1000)
        # One line per way, all in the memo line's L1 set: the memo line
        # is evicted from L1 but stays in L2.
        set_stride = params.l1_size // params.l1_assoc
        for way in range(1, params.l1_assoc + 1):
            mem.prefetch(0, 0x1000 + way * set_stride, 8)
        assert mem.hierarchy.last_line[0] is None
        mem.reset_counters()
        cycles, _ = mem.access(0, 0x1000, 8)
        assert mem.counters[0].l1_hits == 0
        assert mem.counters[0].l2_hits == 1
        assert cycles == params.l2_hit_cycles

    def test_flush_forces_the_full_walk(self):
        mem = self._mem()
        self._memo_on(mem, 0x1000)
        mem.flush()
        assert mem.hierarchy.last_line == [None]
        mem.access(0, 0x1000, 8)
        assert mem.counters[0].llc_misses == 1
        assert mem.counters[0].dtlb_walks == 1

    def test_zero_line_op_keeps_the_memo(self):
        mem = self._mem()
        line = self._memo_on(mem, 0x1000)
        assert mem.access(0, 0x3000, 0) == (0.0, 0.0)
        assert mem.hierarchy.last_line[0] == line

    def test_cores_have_private_l1(self):
        mem = self._mem(n_cores=2)
        mem.access(0, 0x3000, 8)
        mem.access(1, 0x3000, 8)
        # Core 1 found it in the LLC, not its own L1.
        assert mem.counters[1].llc_hits == 1


class TestAnalyticAccess:
    def test_tiny_footprint_always_l1(self):
        mem = MemorySystem(MachineParams(), seed=1)
        for _ in range(100):
            cycles, ns = mem.analytic_access(0, 1024)
            assert ns == 0.0
        assert mem.counters[0].l1_hits == 100

    def test_llc_band_footprint_loads_from_llc(self):
        mem = MemorySystem(MachineParams(), seed=1)
        for _ in range(2000):
            mem.analytic_access(0, 8 * MB)
        counters = mem.counters[0]
        assert counters.llc_loads > 1500
        assert counters.llc_misses == 0

    def test_oversized_footprint_misses_to_dram(self):
        mem = MemorySystem(MachineParams(), seed=1)
        for _ in range(2000):
            mem.analytic_access(0, 28 * MB)
        counters = mem.counters[0]
        assert counters.llc_misses > 0
        # ~half the region fits the 14-MB effective LLC share.
        ratio = counters.llc_misses / counters.llc_loads
        assert 0.3 < ratio < 0.7

    def test_miss_ratio_grows_with_footprint(self):
        ratios = []
        for footprint in (8 * MB, 16 * MB, 32 * MB):
            mem = MemorySystem(MachineParams(), seed=3)
            for _ in range(3000):
                mem.analytic_access(0, footprint)
            ratios.append(mem.counters[0].llc_miss_ratio())
        assert ratios[0] <= ratios[1] <= ratios[2]


class TestCpuCore:
    def _core(self, freq=2.0):
        params = MachineParams(freq_ghz=freq)
        mem = MemorySystem(params)
        return CpuCore(params, mem)

    def test_compute_cost_uses_issue_ipc(self):
        core = self._core()
        core.charge_compute(400)
        assert core.core_cycles == pytest.approx(400 / core.params.issue_ipc)
        assert core.instructions == 400

    def test_elapsed_scales_with_frequency(self):
        slow = self._core(freq=1.0)
        fast = self._core(freq=2.0)
        for core in (slow, fast):
            core.charge_compute(400)
        assert slow.elapsed_ns() == pytest.approx(2 * fast.elapsed_ns())

    def test_uncore_ns_does_not_scale_with_frequency(self):
        slow = self._core(freq=1.0)
        fast = self._core(freq=2.0)
        for core in (slow, fast):
            core.charge_ns(50.0)
        assert slow.elapsed_ns() == fast.elapsed_ns()

    def test_branch_miss_charges_cycles_and_counts(self):
        core = self._core()
        core.charge_branch_miss()
        assert core.core_cycles == core.params.branch_miss_cycles
        assert core.counters.branch_misses == 1

    def test_ipc_definition(self):
        core = self._core(freq=2.0)
        core.charge_compute(800)
        core.charge_ns(100)  # 200 cycle-equivalents at 2 GHz
        issue_cycles = 800 / core.params.issue_ipc
        assert core.ipc() == pytest.approx(800 / (issue_cycles + 200.0))

    def test_mem_access_accumulates(self):
        core = self._core()
        core.mem_access(0x5000, 8)
        assert core.instructions == 1
        assert core.uncore_ns > 0

    def test_reset(self):
        core = self._core()
        core.charge_compute(100)
        core.reset()
        assert core.elapsed_ns() == 0
        assert core.ipc() == 0.0

    def test_random_access_counts(self):
        core = self._core()
        core.random_access(64 * MB)
        assert core.counters.llc_loads + core.counters.l1_hits + core.counters.l2_hits == 1
