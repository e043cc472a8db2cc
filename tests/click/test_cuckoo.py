"""Tests for the cuckoo hash table, including hypothesis model checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click.elements.cuckoo import (
    BUCKET_SLOTS,
    CuckooFullError,
    CuckooHashTable,
)
from tests.click import reference_cuckoo


class TestBasics:
    def test_rejects_bad_bucket_count(self):
        with pytest.raises(ValueError):
            CuckooHashTable(n_buckets=100)
        with pytest.raises(ValueError):
            CuckooHashTable(n_buckets=1)

    def test_insert_lookup(self):
        table = CuckooHashTable(n_buckets=16)
        table.insert(("flow", 1), "a")
        assert table.lookup(("flow", 1)) == "a"
        assert table.lookup(("flow", 2)) is None

    def test_update_in_place(self):
        table = CuckooHashTable(n_buckets=16)
        table.insert("k", 1)
        table.insert("k", 2)
        assert table.lookup("k") == 2
        assert table.entries == 1

    def test_contains(self):
        table = CuckooHashTable(n_buckets=16)
        table.insert("k", 1)
        assert "k" in table
        assert "missing" not in table

    def test_displacement_fills_past_one_bucket(self):
        """More inserts than one bucket holds must still all be found."""
        table = CuckooHashTable(n_buckets=64)
        keys = [("k", i) for i in range(BUCKET_SLOTS * 20)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        for i, key in enumerate(keys):
            assert table.lookup(key) == i

    def test_high_load_factor_reachable(self):
        table = CuckooHashTable(n_buckets=64)
        inserted = 0
        try:
            for i in range(table.capacity):
                table.insert(("key", i), i)
                inserted += 1
        except CuckooFullError:
            pass
        assert table.entries / table.capacity > 0.8, \
            "cuckoo should fill past 80%%: %d" % inserted

    def test_items_iteration(self):
        table = CuckooHashTable(n_buckets=16)
        data = {("k", i): i for i in range(10)}
        for key, value in data.items():
            table.insert(key, value)
        assert dict(table.items()) == data

    def test_footprint(self):
        table = CuckooHashTable(n_buckets=1024)
        assert table.footprint_bytes() == 1024 * BUCKET_SLOTS * 16


class TestModelBased:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "lookup"]),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, operations):
        """The cuckoo table behaves exactly like a dict."""
        table = CuckooHashTable(n_buckets=64)
        model = {}
        for op, key in operations:
            if op == "insert":
                table.insert(key, key * 2)
                model[key] = key * 2
            else:
                assert table.lookup(key) == model.get(key)
            assert table.entries == len(model)
        for key, value in model.items():
            assert table.lookup(key) == value


def _apply(table, full_error, op, key, value):
    """One operation's observable outcome: its return value or the error."""
    try:
        if op == "insert":
            return table.insert(key, value)
        return table.lookup(key)
    except full_error:
        return "full"


def _assert_same_state(flat, ref):
    assert flat.entries == ref.entries
    assert list(flat.items()) == list(ref.items())


_KEYS = st.one_of(
    st.integers(min_value=-64, max_value=160),
    st.tuples(st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=3)),
)


class TestFlatSlotsDifferential:
    """The flat slot lists behave exactly like the nested per-bucket table.

    Small tables (2-16 buckets) make displacement chains and
    ``CuckooFullError`` common, so victim choice and failure timing are
    compared, not just dict semantics.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 4, 8, 16]),
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "lookup"]),
                _KEYS,
            ),
            max_size=250,
        ),
    )
    def test_matches_nested_reference(self, n_buckets, operations):
        flat = CuckooHashTable(n_buckets=n_buckets)
        ref = reference_cuckoo.CuckooHashTable(n_buckets=n_buckets)
        inserted = []
        for step, (op, key) in enumerate(operations):
            if op == "update":
                # Re-insert a key seen before, under a new value.
                op = "insert"
                key = inserted[step % len(inserted)] if inserted else key
            if op == "insert":
                inserted.append(key)
            got = _apply(flat, CuckooFullError, op, key, step)
            want = _apply(ref, reference_cuckoo.CuckooFullError, op, key, step)
            assert got == want, (step, op, key)
            assert flat.entries == ref.entries
        _assert_same_state(flat, ref)

    @pytest.mark.parametrize("n_buckets", [2, 4, 8, 16])
    def test_full_error_at_the_same_insert(self, n_buckets):
        flat = CuckooHashTable(n_buckets=n_buckets)
        ref = reference_cuckoo.CuckooHashTable(n_buckets=n_buckets)
        failures = []
        for i in range(4 * n_buckets * BUCKET_SLOTS):
            key = (i, i % 3)
            got = _apply(flat, CuckooFullError, "insert", key, i)
            want = _apply(ref, reference_cuckoo.CuckooFullError, "insert", key, i)
            assert got == want, i
            if got == "full":
                failures.append(i)
            _assert_same_state(flat, ref)
        assert failures, "the table never filled"
