"""Tests for the NIC model, metadata models, and the PMD RX/TX paths."""

import pytest

from repro.compiler.ir import DirectCall, PoolOp
from repro.compiler.pipeline import PassManager, compile_pmd
from repro.compiler.structlayout import LayoutRegistry
from repro.core.options import BuildOptions, MetadataModel
from repro.dpdk.metadata import (
    PACKET_COMMON_FIELDS,
    CopyingModel,
    OverlayingModel,
    XChangeModel,
    build_fastclick_packet_layout,
    build_overlay_packet_layout,
    make_model,
)
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import BURST_OVERHEAD_INSTRUCTIONS, MlxPmd
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def make_rig(model_name="copying", lto=True, frame=128, rx_ring=64):
    params = MachineParams(rx_ring_size=rx_ring, tx_ring_size=rx_ring)
    mem = MemorySystem(params)
    cpu = CpuCore(params, mem)
    space = AddressSpace(seed=0)
    trace = FixedSizeTraceGenerator(frame, TraceSpec(pool_size=128))
    nic = Nic(params, mem, space, trace)
    model = make_model(model_name)
    model.setup(space, params)
    registry = LayoutRegistry()
    model.register_layouts(registry)
    options = BuildOptions(metadata_model=MetadataModel(model_name), lto=lto)
    pmd = MlxPmd(nic, model, cpu,
                 compile_pmd(model, options, registry, PassManager()))
    return pmd, cpu, nic, model, registry


class TestPacketLayouts:
    def test_fastclick_layout_has_common_fields(self):
        layout = build_fastclick_packet_layout()
        for field in PACKET_COMMON_FIELDS:
            assert layout.has_field(field), field

    def test_overlay_layout_has_common_fields(self):
        layout = build_overlay_packet_layout()
        for field in PACKET_COMMON_FIELDS:
            assert layout.has_field(field), field

    def test_fastclick_hot_fields_span_three_lines(self):
        """Pre-reordering, the RX-hot fields spread over all three lines --
        the inefficiency the reorder pass removes."""
        layout = build_fastclick_packet_layout()
        hot = ["length", "data_ptr", "rss_anno", "vlan_anno", "timestamp"]
        lines = set()
        for name in hot:
            start = layout.offset_of(name)
            end = start + layout.field(name).size - 1
            lines.update(range(start // 64, end // 64 + 1))
        assert lines == {0, 1, 2}

    def test_overlay_anno_after_mbuf(self):
        layout = build_overlay_packet_layout()
        assert layout.offset_of("dst_ip_anno") >= 128


class TestModelFactory:
    def test_known_names(self):
        assert isinstance(make_model("copying"), CopyingModel)
        assert isinstance(make_model("overlaying"), OverlayingModel)
        assert isinstance(make_model("xchange"), XChangeModel)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_model("teleport")


class TestRxPath:
    @pytest.mark.parametrize("model_name", ["copying", "overlaying", "xchange"])
    def test_rx_burst_returns_packets(self, model_name):
        pmd, cpu, nic, model, _ = make_rig(model_name)
        pkts = pmd.rx_burst(32)
        assert len(pkts) == 32
        assert all(len(p) == 128 for p in pkts)
        assert all(p.mbuf is not None for p in pkts)

    def test_rx_burst_charges_cpu(self):
        pmd, cpu, *_ = make_rig()
        pmd.rx_burst(32)
        assert cpu.instructions > 32 * 20  # driver work per packet
        assert cpu.elapsed_ns() > 0

    def test_rx_ring_stays_full(self):
        pmd, _, nic, *_ = make_rig()
        pmd.rx_burst(32)
        assert nic.rx_ring.is_full()

    def test_rx_meta_addresses_differ_by_model(self):
        pmd_c, *_ = make_rig("copying")
        pmd_x, *_ = make_rig("xchange")
        pc = pmd_c.rx_burst(1)[0]
        px = pmd_x.rx_burst(1)[0]
        # Copying: metadata in a separate pool, distinct from the mbuf.
        assert pc.mbuf.meta_addr != pc.mbuf.mbuf_addr
        # X-Change: no rte_mbuf at all.
        assert px.mbuf.mbuf_addr == 0
        assert px.mbuf.meta_addr != 0

    def test_overlay_meta_is_the_mbuf(self):
        pmd, *_ = make_rig("overlaying")
        pkt = pmd.rx_burst(1)[0]
        assert pkt.mbuf.meta_addr == pkt.mbuf.mbuf_addr

    def test_xchange_metadata_pool_is_small(self):
        pmd, *_ = make_rig("xchange")
        metas = set()
        for _ in range(8):
            for pkt in pmd.rx_burst(32):
                metas.add(pkt.mbuf.meta_addr)
            pmd.tx_burst([])
        assert len(metas) <= 64  # bounded by meta_buffers

    def test_copying_metadata_cycles_with_pool(self):
        pmd, *_ = make_rig("copying")
        pkts = pmd.rx_burst(32)
        metas = {p.mbuf.meta_addr for p in pkts}
        assert len(metas) == 32  # each in-flight packet owns an object


class TestTxPath:
    @pytest.mark.parametrize("model_name", ["copying", "overlaying", "xchange"])
    def test_forward_loop_conserves_buffers(self, model_name):
        pmd, cpu, nic, model, _ = make_rig(model_name)
        for _ in range(50):
            pkts = pmd.rx_burst(32)
            assert pmd.tx_burst(pkts) == len(pkts)
        pmd.drain_tx()
        assert nic.tx_sent == 50 * 32
        if model.mempool is not None:
            # All mbufs eventually return: none leaked beyond the posted ring.
            outstanding = model.mempool.gets - model.mempool.puts
            assert outstanding == nic.rx_ring.count

    def test_tx_requires_buffer(self):
        from repro.net.packet import Packet

        pmd, *_ = make_rig()
        with pytest.raises(ValueError):
            pmd.tx_burst([Packet(b"\x00" * 64)])

    def test_tx_charges_the_packets_before_a_bufferless_one(self):
        from repro.net.packet import Packet

        pmd, cpu, nic, *_ = make_rig()
        pkts = pmd.rx_burst(2)
        expected = cpu.instructions + BURST_OVERHEAD_INSTRUCTIONS
        for _ in pkts:
            expected += pmd.tx_exec.instructions
        with pytest.raises(ValueError):
            pmd.tx_burst(pkts + [Packet(b"\x00" * 64)])
        assert nic.tx_sent == 2
        assert cpu.instructions == expected

    def test_tx_counts_bytes(self):
        pmd, _, nic, *_ = make_rig(frame=256)
        pkts = pmd.rx_burst(8)
        pmd.tx_burst(pkts)
        assert nic.tx_bytes == 8 * 256


class TestModelCostOrdering:
    def _ns_per_packet(self, model_name, lto=True, n_batches=200):
        pmd, cpu, *_ = make_rig(model_name, lto=lto)
        # Warm up caches/TLB first.
        for _ in range(50):
            pmd.tx_burst(pmd.rx_burst(32))
        cpu.reset()
        cpu.mem.reset_counters()
        for _ in range(n_batches):
            pmd.tx_burst(pmd.rx_burst(32))
        return cpu.elapsed_ns() / (n_batches * 32)

    def test_xchange_cheaper_than_overlaying_cheaper_than_copying(self):
        copying = self._ns_per_packet("copying")
        overlaying = self._ns_per_packet("overlaying")
        xchange = self._ns_per_packet("xchange")
        assert xchange < overlaying < copying

    def test_lto_helps_xchange(self):
        """Without LTO the conversion calls are real calls (paper §4.2)."""
        with_lto = self._ns_per_packet("xchange", lto=True)
        without = self._ns_per_packet("xchange", lto=False)
        assert with_lto < without

    def test_xchange_program_has_conversion_calls(self):
        model = XChangeModel()
        assert model.rx_program().count(DirectCall) >= 6

    def test_copying_program_has_pool_ops(self):
        model = CopyingModel()
        assert model.rx_program().count(PoolOp) == 2
        assert model.tx_program().count(PoolOp) == 2

    def test_xchange_program_has_no_pool_ops(self):
        model = XChangeModel()
        assert model.rx_program().count(PoolOp) == 0
        assert model.tx_program().count(PoolOp) == 0
