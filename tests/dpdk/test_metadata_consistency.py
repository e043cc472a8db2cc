"""Cross-component consistency tests: conversion sets, layouts, models."""

import pytest

from repro.compiler.structlayout import LayoutRegistry
from repro.core.nfs import forwarder
from repro.core.options import BuildOptions, MetadataModel
from repro.dpdk.metadata import (
    MBUF_RX_FIELDS,
    PACKET_COMMON_FIELDS,
    CopyingModel,
    OverlayingModel,
    XChangeModel,
    build_fastclick_packet_layout,
    build_mbuf_layout,
    make_model,
)
from repro.dpdk.tinynf import TinyNfModel
from repro.dpdk.xchg_api import (
    RX_METADATA_ITEMS,
    TX_METADATA_ITEMS,
    fastclick_conversions,
    minimal_conversions,
    standard_dpdk_conversions,
)
from repro.hw.layout import AddressSpace
from repro.hw.params import MachineParams

ALL_MODELS = [CopyingModel, OverlayingModel, XChangeModel, TinyNfModel]


def setup_model(cls):
    model = cls()
    model.setup(AddressSpace(seed=0), MachineParams())
    registry = LayoutRegistry()
    model.register_layouts(registry)
    return model, registry


class TestConversionSetConsistency:
    @pytest.mark.parametrize("conversions", [
        standard_dpdk_conversions(), fastclick_conversions(), minimal_conversions(),
    ])
    def test_targets_exist_in_their_layouts(self, conversions):
        """Every conversion function writes a field that really exists."""
        layouts = {
            "rte_mbuf": build_mbuf_layout(),
            "Packet": build_fastclick_packet_layout(),
        }
        for item, (struct, fieldname) in conversions.targets.items():
            assert layouts[struct].has_field(fieldname), (item, struct, fieldname)

    def test_tx_items_subset_of_rx_items_semantics(self):
        assert set(TX_METADATA_ITEMS) <= set(RX_METADATA_ITEMS)


class TestModelLayoutConsistency:
    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_packet_layout_has_common_fields(self, cls):
        _, registry = setup_model(cls)
        layout = registry.get("Packet")
        for fieldname in PACKET_COMMON_FIELDS:
            assert layout.has_field(fieldname), (cls.__name__, fieldname)

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_driver_layouts_registered(self, cls):
        _, registry = setup_model(cls)
        for struct in ("rte_mbuf", "cqe", "tx_descriptor"):
            assert registry.get(struct) is not None

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_programs_lower_cleanly(self, cls):
        from repro.compiler.lower import lower

        model, registry = setup_model(cls)
        rx = lower(model.rx_program(), registry)
        tx = lower(model.tx_program(), registry)
        assert rx.instructions > 0
        assert tx.instructions > 0
        assert any(op.target == "descriptor" for op in rx.mem_ops)
        assert any(op.target == "descriptor" for op in tx.mem_ops)

    def test_mbuf_rx_fields_exist(self):
        layout = build_mbuf_layout()
        for fieldname in MBUF_RX_FIELDS:
            assert layout.has_field(fieldname)


class TestBufferLifecycles:
    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_allocate_produces_usable_refs(self, cls):
        model, _ = setup_model(cls)
        ref = model.allocate(None)
        assert ref.data_addr > 0
        assert ref.meta_addr > 0
        model.release([ref], None)  # never raises

    def test_copying_allocate_distinct_meta(self):
        model, _ = setup_model(CopyingModel)
        a = model.allocate(None)
        b = model.allocate(None)
        assert a.meta_addr != b.meta_addr
        assert a.data_addr != b.data_addr

    def test_xchange_allocate_cycles_app_region(self):
        model, _ = setup_model(XChangeModel)
        first = model.allocate(None)
        for _ in range(XChangeModel.APP_TX_BUFFERS - 1):
            model.allocate(None)
        wrapped = model.allocate(None)
        assert wrapped.data_addr == first.data_addr

    def test_xchange_app_region_disjoint_from_rx_buffers(self):
        model, _ = setup_model(XChangeModel)
        rx = model.rx_buffer(None)
        app = model.allocate(None)
        assert app.data_addr != rx.data_addr

    def test_factory_all_names(self):
        # The options' MetadataModel is a str enum: member and value alike.
        for model in MetadataModel:
            assert make_model(model).name == model.value
            assert make_model(model.value).name == model.value

    def test_build_and_analysis_share_the_factory(self, monkeypatch):
        import repro.core.packetmill as packetmill
        import repro.dpdk.metadata as metadata

        calls = []

        def spy(name):
            calls.append(name)
            return make_model(name)

        monkeypatch.setattr(packetmill, "make_model", spy)
        monkeypatch.setattr(metadata, "make_model", spy)
        mill = packetmill.PacketMill(forwarder(), BuildOptions.packetmill())
        mill.analysis()
        mill.build()
        assert calls == [MetadataModel.XCHANGE, MetadataModel.XCHANGE]
