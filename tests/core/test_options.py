"""Tests for build options and the X-Change conversion sets."""

import pytest

from repro.core.options import BuildOptions, MetadataModel, OptionsError
from repro.dpdk.metadata import XChangeModel
from repro.dpdk.xchg_api import (
    fastclick_conversions,
    minimal_conversions,
    standard_dpdk_conversions,
)


class TestBuildOptions:
    def test_vanilla_is_all_off(self):
        options = BuildOptions.vanilla()
        assert options.metadata_model is MetadataModel.COPYING
        assert not options.devirtualize
        assert not options.static_graph
        assert not options.lto

    def test_packetmill_composition(self):
        options = BuildOptions.packetmill()
        assert options.metadata_model is MetadataModel.XCHANGE
        assert options.devirtualize
        assert options.constant_embedding
        assert options.static_graph
        assert options.lto
        # §4.4 footnote: the combined system does not include reordering.
        assert not options.reorder_metadata

    def test_static_implies_devirtualize(self):
        assert BuildOptions.static().devirtualize

    def test_reorder_requires_lto(self):
        with pytest.raises(OptionsError):
            BuildOptions(reorder_metadata=True, lto=False)

    def test_reorder_requires_copying(self):
        with pytest.raises(OptionsError):
            BuildOptions(
                reorder_metadata=True,
                lto=True,
                metadata_model=MetadataModel.XCHANGE,
            )

    def test_lto_reorder_variant_is_valid(self):
        options = BuildOptions.lto_reorder()
        assert options.reorder_metadata
        assert options.metadata_model is MetadataModel.COPYING

    def test_with_model(self):
        options = BuildOptions.metadata(MetadataModel.OVERLAYING)
        assert options.with_model(MetadataModel.XCHANGE).metadata_model is MetadataModel.XCHANGE

    def test_label(self):
        assert BuildOptions.vanilla().label() == "copying"
        label = BuildOptions.packetmill().label()
        assert "xchange" in label and "static" in label and "lto" in label

    def test_frozen(self):
        with pytest.raises(Exception):
            BuildOptions.vanilla().lto = True


class TestConversionSets:
    def test_standard_targets_mbuf_only(self):
        conversions = standard_dpdk_conversions()
        assert conversions.struct_names() == {"rte_mbuf"}

    def test_fastclick_targets_packet_only(self):
        conversions = fastclick_conversions()
        assert conversions.struct_names() == {"Packet"}

    def test_minimal_has_two_items(self):
        assert len(minimal_conversions().targets) == 2

    def test_function_names(self):
        conversions = fastclick_conversions()
        assert conversions.setter_name("vlan_tci") == "xchg_set_vlan_tci"
        assert conversions.getter_name("length") == "xchg_get_length"

    def test_missing_item_raises(self):
        with pytest.raises(KeyError):
            minimal_conversions().target_of("vlan_tci")

    def test_xchange_model_defaults_to_fastclick_conversions(self):
        model = XChangeModel(meta_buffers=32)
        assert model.meta_buffers == 32
        assert model.conversions.name == "fastclick"
