"""Tests for struct layouts and the field-reordering transformation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler.structlayout import Field, LayoutRegistry, StructLayout


def sample_layout():
    # Mirrors the paper's Listing 4 example: one hot field buried behind
    # cold ones.
    return StructLayout(
        "Packet",
        [
            Field("unusedlong", 8),
            Field("unusedptr", 8),
            Field("data", 8),
            Field("unusedchar", 1),
            Field("length", 4),
        ],
    )


class TestStructLayout:
    def test_offsets_respect_alignment(self):
        layout = sample_layout()
        assert layout.offset_of("unusedlong") == 0
        assert layout.offset_of("unusedptr") == 8
        assert layout.offset_of("data") == 16
        assert layout.offset_of("unusedchar") == 24
        assert layout.offset_of("length") == 28  # aligned to 4 after the char

    def test_size_rounds_to_struct_align(self):
        layout = sample_layout()
        assert layout.size == 64

    def test_min_size(self):
        layout = StructLayout("s", [Field("a", 8)], min_size=128)
        assert layout.size == 128

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            StructLayout("s", [Field("a", 8), Field("a", 4)])

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            sample_layout().offset_of("nope")

    def test_cache_line_of(self):
        layout = StructLayout("s", [Field("a", 64, align=64), Field("b", 8)])
        assert layout.cache_line_of("a") == 0
        assert layout.cache_line_of("b") == 1

    def test_cache_lines_total(self):
        layout = StructLayout("s", [Field("a", 100)], align=64)
        assert layout.size == 2 * 64

    def test_lines_touched(self):
        layout = StructLayout(
            "s", [Field("a", 8), Field("pad", 120, align=8), Field("b", 8)]
        )
        assert layout.offset_of("a") // 64 == 0
        assert layout.offset_of("b") // 64 == 2
        pad = layout.offset_of("pad")
        assert (pad // 64, (pad + 120 - 1) // 64) == (0, 1)  # straddles

    def test_has_field(self):
        assert sample_layout().has_field("data")
        assert not sample_layout().has_field("ghost")


class TestReordering:
    def test_hot_field_moves_to_front(self):
        layout = sample_layout()
        hot = layout.reordered({"length": 10, "data": 5})
        assert hot.offset_of("length") == 0
        assert hot.offset_of("data") == 8

    def test_unreferenced_fields_keep_relative_order(self):
        hot = sample_layout().reordered({"length": 1})
        names = [f.name for f in hot.fields]
        assert names == ["length", "unusedlong", "unusedptr", "data", "unusedchar"]

    def test_reordering_reduces_lines_touched(self):
        """The point of the pass: hot fields end up on one line."""
        fields = [Field("cold%d" % i, 8) for i in range(8)]
        fields.append(Field("hot_a", 8))
        fields += [Field("cold%d" % i, 8) for i in range(8, 16)]
        fields.append(Field("hot_b", 8))
        layout = StructLayout("meta", fields)
        hot = layout.reordered({"hot_a": 9, "hot_b": 7})
        before = {layout.offset_of(name) // 64 for name in ("hot_a", "hot_b")}
        after = {hot.offset_of(name) // 64 for name in ("hot_a", "hot_b")}
        assert len(before) == 2
        assert len(after) == 1

    def test_reordering_preserves_field_set_and_size_bound(self):
        layout = sample_layout()
        hot = layout.reordered({"length": 3})
        assert {f.name for f in hot.fields} == {f.name for f in layout.fields}
        assert hot.size <= layout.size  # packing can only improve or tie

    @given(
        st.dictionaries(
            st.sampled_from(["unusedlong", "unusedptr", "data", "unusedchar", "length"]),
            st.integers(min_value=0, max_value=100),
        )
    )
    def test_reordering_total_order_property(self, counts):
        """Fields are sorted by non-increasing access count."""
        hot = sample_layout().reordered(counts)
        seq = [counts.get(f.name, 0) for f in hot.fields]
        assert seq == sorted(seq, reverse=True)


class TestLayoutRegistry:
    def test_register_and_resolve(self):
        registry = LayoutRegistry()
        registry.register(sample_layout())
        offset, size = registry.resolve("Packet", "length")
        assert (offset, size) == (28, 4)

    def test_replace_changes_resolution(self):
        registry = LayoutRegistry()
        layout = registry.register(sample_layout())
        registry.replace("Packet", layout.reordered({"length": 5}))
        offset, _ = registry.resolve("Packet", "length")
        assert offset == 0

    def test_replace_unknown_raises(self):
        with pytest.raises(KeyError):
            LayoutRegistry().replace("Packet", sample_layout())

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            LayoutRegistry().get("nope")

    def test_copy_is_independent(self):
        registry = LayoutRegistry()
        layout = registry.register(sample_layout())
        dup = registry.copy()
        dup.replace("Packet", layout.reordered({"length": 5}))
        assert registry.resolve("Packet", "length")[0] == 28
        assert dup.resolve("Packet", "length")[0] == 0
