"""Tests for the NIC hardware model."""

import pytest

from repro.dpdk.metadata import OverlayingModel
from repro.dpdk.nic import Nic
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def make_nic(frame=256, rx_ring=64):
    params = MachineParams(rx_ring_size=rx_ring, tx_ring_size=rx_ring)
    mem = MemorySystem(params)
    space = AddressSpace(seed=0)
    trace = FixedSizeTraceGenerator(frame, TraceSpec(pool_size=32))
    nic = Nic(params, mem, space, trace)
    model = OverlayingModel()
    model.setup(space, params)
    return nic, model, mem


class FailingTrace:
    """``trace``'s first ``good`` frames, then a raise."""

    def __init__(self, trace, good):
        self.trace = trace
        self.good = good

    def next_packet(self):
        if not self.good:
            raise RuntimeError("trace source failed")
        self.good -= 1
        return self.trace.next_packet()


class TestRxPath:
    def test_deliver_requires_posted_buffers(self):
        nic, model, _ = make_nic()
        assert nic.deliver(8) == []

    def test_deliver_fills_posted_buffers(self):
        nic, model, _ = make_nic()
        for _ in range(4):
            nic.post_rx(model.rx_buffer(None))
        out = nic.deliver(8)
        assert len(out) == 4  # bounded by posted buffers
        assert nic.rx_posted == 0
        assert nic.rx_delivered == 4

    def test_deliver_bounded_by_max(self):
        nic, model, _ = make_nic()
        for _ in range(8):
            nic.post_rx(model.rx_buffer(None))
        assert len(nic.deliver(3)) == 3
        assert nic.rx_posted == 5

    def test_dma_writes_data_and_cqe(self):
        nic, model, mem = make_nic(frame=256)
        nic.post_rx(model.rx_buffer(None))
        (ref, pkt), = nic.deliver(1)
        # 256-B frame = 4 lines, plus one CQE line.
        assert mem.counters[0].ddio_fills == 5
        assert ref.cqe_addr != 0

    def test_frames_delivered_before_a_raise_stay_written(self):
        """The burst's DMA writes are one call when the loop ends, also
        when the trace raises: the two frames before the raise are
        written (4 data lines and a CQE line each), in one call."""
        nic, model, mem = make_nic(frame=256)
        for _ in range(4):
            nic.post_rx(model.rx_buffer(None))
        nic.trace = FailingTrace(nic.trace, good=2)
        calls = []
        write = mem.dma_write

        def counting_write(ranges):
            calls.append(len(ranges))
            write(ranges)

        mem.dma_write = counting_write
        with pytest.raises(RuntimeError):
            nic.deliver(4)
        assert calls == [4]
        assert mem.counters[0].ddio_fills == 2 * 5
        assert nic.rx_delivered == 2

    def test_cqe_addresses_rotate(self):
        nic, model, _ = make_nic()
        for _ in range(3):
            nic.post_rx(model.rx_buffer(None))
        addrs = [ref.cqe_addr for ref, _ in nic.deliver(3)]
        assert len(set(addrs)) == 3

    def test_packets_come_from_trace(self):
        nic, model, _ = make_nic(frame=256)
        nic.post_rx(model.rx_buffer(None))
        (ref, pkt), = nic.deliver(1)
        assert len(pkt) == 256


class TestTxPath:
    def test_transmit_counts(self):
        nic, model, _ = make_nic()
        ref = model.rx_buffer(None)
        nic.transmit(ref, 256)
        assert nic.tx_sent == 1
        assert nic.tx_bytes == 256

    def test_reap_respects_threshold(self):
        nic, model, _ = make_nic()
        refs = [model.rx_buffer(None) for _ in range(5)]
        for ref in refs:
            nic.transmit(ref, 64)
        done = nic.reap_tx(threshold=2)
        assert len(done) == 3
        assert done[0] is refs[0]  # FIFO completion order

    def test_tx_ring_capacity(self):
        nic, model, _ = make_nic(rx_ring=4)
        for _ in range(4):
            nic.transmit(model.rx_buffer(None), 64)
        with pytest.raises(OverflowError):
            nic.transmit(model.rx_buffer(None), 64)
