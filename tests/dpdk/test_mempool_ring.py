"""Tests for mempools, rings, mbuf layouts, and the PCIe model."""

import pytest

from repro.dpdk.mbuf import (
    CQE_SIZE,
    RTE_MBUF_SIZE,
    BufferRef,
    build_cqe_layout,
    build_mbuf_layout,
    build_tx_descriptor_layout,
)
from repro.dpdk.mempool import Mempool, MempoolEmptyError
from repro.dpdk.pcie import PcieModel
from repro.dpdk.ring import DescriptorRing
from repro.hw.layout import AddressSpace
from repro.hw.params import MachineParams


class TestMbufLayouts:
    def test_mbuf_spans_two_lines(self):
        layout = build_mbuf_layout()
        assert layout.size == RTE_MBUF_SIZE == 2 * 64

    def test_rx_hot_fields_in_line0(self):
        layout = build_mbuf_layout()
        for field in ("pkt_len", "data_len", "rss_hash", "vlan_tci", "ol_flags"):
            assert layout.cache_line_of(field) == 0, field

    def test_tx_fields_in_line1(self):
        layout = build_mbuf_layout()
        for field in ("next", "tx_offload", "pool"):
            assert layout.cache_line_of(field) == 1, field

    def test_cqe_fits_one_line(self):
        layout = build_cqe_layout()
        assert layout.size == CQE_SIZE <= 64

    def test_tx_descriptor_fits_one_line(self):
        assert build_tx_descriptor_layout().size <= 64


class TestMempool:
    def _pool(self, n=8):
        return Mempool(AddressSpace(seed=0), n=n)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            Mempool(AddressSpace(seed=0), n=0)

    def test_addresses_are_disjoint_and_spaced(self):
        pool = self._pool()
        a0 = pool.mbuf_addr(0)
        a1 = pool.mbuf_addr(1)
        assert a1 - a0 == pool.elt_size

    def test_data_addr_after_metadata_and_headroom(self):
        pool = self._pool()
        assert pool.data_addr(3) == pool.mbuf_addr(3) + RTE_MBUF_SIZE + pool.headroom

    def test_get_put_lifo(self):
        pool = self._pool(n=4)
        a = pool.get()
        b = pool.get()
        pool.put(a)
        c = pool.get()
        assert c.index == a.index  # LIFO: most recently freed comes back first
        assert b.index != c.index

    def test_exhaustion_raises(self):
        pool = self._pool(n=2)
        pool.get()
        pool.get()
        with pytest.raises(MempoolEmptyError):
            pool.get()

    def test_double_free_detected(self):
        pool = self._pool(n=2)
        ref = pool.get()
        pool.put(ref)
        with pytest.raises(RuntimeError):
            pool.put(ref)

    def test_double_free_detected_while_other_buffers_are_out(self):
        """A buffer put twice is caught although the pool is not full;
        accepted, it would come back from two gets."""
        pool = self._pool(n=4)
        a = pool.get()
        pool.get()
        pool.put(a)
        with pytest.raises(RuntimeError, match="double free"):
            pool.put(a)
        assert pool.get().index == a.index
        assert pool.get().index != a.index
        assert pool.gets == pool.puts + pool.in_flight

    def test_put_validates_index(self):
        pool = self._pool(n=2)
        with pytest.raises(IndexError):
            pool.put(BufferRef(index=99, mbuf_addr=0, data_addr=0))

    def test_stats(self):
        pool = self._pool(n=4)
        ref = pool.get()
        pool.put(ref)
        assert pool.gets == 1
        assert pool.puts == 1


class TestDescriptorRing:
    def _ring(self, size=8):
        return DescriptorRing(AddressSpace(seed=0), size, 64, "r")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DescriptorRing(AddressSpace(seed=0), 6, 64, "r")

    def test_fifo_order(self):
        ring = self._ring()
        ring.push("a")
        ring.push("b")
        assert ring.pop()[1] == "a"
        assert ring.pop()[1] == "b"

    def test_full_and_empty(self):
        ring = self._ring(size=2)
        assert ring.is_empty()
        ring.push(1)
        ring.push(2)
        assert ring.is_full()
        with pytest.raises(OverflowError):
            ring.push(3)
        ring.pop()
        ring.pop()
        with pytest.raises(IndexError):
            ring.pop()

    def test_wraparound(self):
        ring = self._ring(size=2)
        for i in range(10):
            ring.push(i)
            assert ring.pop()[1] == i

    def test_slot_addresses(self):
        ring = self._ring(size=4)
        assert ring.slot_addr(1) - ring.slot_addr(0) == 64
        assert ring.slot_addr(4) == ring.slot_addr(0)  # wraps

    def test_peek(self):
        ring = self._ring()
        ring.push("x")
        assert ring.peek() == "x"
        assert ring.count == 1


class TestPcieModel:
    def _model(self):
        return PcieModel(MachineParams())

    def test_overhead_grows_with_tlps(self):
        model = self._model()
        assert model.bytes_on_wire(256) < model.bytes_on_wire(257) + 0  # extra TLP
        assert model.bytes_on_wire(64) == 64 + 26 + 64

    def test_small_packet_latency_bound(self):
        model = self._model()
        params = MachineParams()
        assert model.pps_limit(64) == pytest.approx(1e9 / params.pcie_per_packet_ns)

    def test_large_packet_bandwidth_bound(self):
        model = self._model()
        # At MTU the limit must be bandwidth-derived, below the pps ceiling.
        assert model.pps_limit(1500) < model.pps_limit(64)

    def test_goodput_below_link_rate_at_mtu(self):
        """The paper's Fig. 6 premise: PCIe caps goodput slightly below
        the 100-Gbps link at large frame sizes."""
        model = self._model()
        goodput = model.goodput_gbps(1472)
        assert 90 < goodput < 105

    def test_pps_monotonically_nonincreasing_in_size(self):
        model = self._model()
        limits = [model.pps_limit(s) for s in range(64, 1500, 64)]
        assert all(a >= b for a, b in zip(limits, limits[1:]))
