"""CounterRegistry: handles, kinds, mounts, globs, scopes, snapshots."""

import pytest

from repro.telemetry.registry import (
    COUNTER,
    GAUGE,
    Counter,
    CounterRegistry,
    TelemetryError,
    delta,
    is_glob,
)

pytestmark = pytest.mark.telemetry


class TestHandles:
    def test_counter_is_the_storage(self):
        registry = CounterRegistry()
        handle = registry.counter("driver.rx_packets")
        handle.value += 5
        assert registry.get("driver.rx_packets") == 5
        assert registry.counter("driver.rx_packets") is handle

    def test_counter_rejects_negative_add(self):
        handle = Counter("x")
        handle.add(3)
        with pytest.raises(TelemetryError):
            handle.add(-1)
        assert handle.value == 3

    def test_gauge_moves_both_ways(self):
        registry = CounterRegistry()
        gauge = registry.gauge("queue.depth")
        gauge.add(4)
        gauge.add(-3)
        gauge.set(10)
        assert registry.get("queue.depth") == 10

    def test_kind_mismatch_raises(self):
        registry = CounterRegistry()
        registry.counter("a.b")
        with pytest.raises(TelemetryError):
            registry.gauge("a.b")
        assert registry.kind_of("a.b") == COUNTER
        assert registry.kind_of("missing") is None

    def test_contains_and_default(self):
        registry = CounterRegistry()
        registry.counter("x.y")
        assert "x.y" in registry
        assert "x.z" not in registry
        assert registry.get("x.z", default=-1) == -1


class TestMounts:
    def test_mounted_counters_share_storage(self):
        inner = CounterRegistry()
        handle = inner.counter("llc_misses")
        outer = CounterRegistry()
        outer.mount("cpu", inner)
        handle.value = 42
        assert outer.get("cpu.llc_misses") == 42
        # Creating through the outer name resolves to the same handle.
        assert outer.counter("cpu.llc_misses") is handle

    def test_mounted_names_are_flattened(self):
        inner = CounterRegistry()
        inner.counter("l1_hits")
        outer = CounterRegistry()
        outer.counter("driver.batches")
        outer.mount("cpu", inner)
        assert outer.names() == ["cpu.l1_hits", "driver.batches"]
        assert "cpu.l1_hits" in outer

    def test_mount_prefix_must_be_literal(self):
        outer = CounterRegistry()
        with pytest.raises(TelemetryError):
            outer.mount("cpu.*", CounterRegistry())
        with pytest.raises(TelemetryError):
            outer.mount("", CounterRegistry())

    def test_reset_prefix_crosses_mounts(self):
        inner = CounterRegistry()
        inner.counter("l1_hits").value = 7
        outer = CounterRegistry()
        outer.counter("driver.batches").value = 3
        outer.mount("cpu", inner)
        outer.reset("cpu.")
        assert outer.get("cpu.l1_hits") == 0
        assert outer.get("driver.batches") == 3
        outer.reset()
        assert outer.get("driver.batches") == 0


class TestGlobs:
    def test_is_glob(self):
        assert is_glob("nic.*.imissed")
        assert is_glob("a?c")
        assert not is_glob("nic.0.imissed")

    def test_match(self):
        registry = CounterRegistry()
        registry.counter("nic.0.imissed").value = 1
        registry.counter("nic.1.imissed").value = 2
        registry.counter("nic.0.rx_errors").value = 9
        assert registry.match("nic.*.imissed") == {
            "nic.0.imissed": 1,
            "nic.1.imissed": 2,
        }

    def test_snapshot_is_sorted_and_plain(self):
        registry = CounterRegistry()
        registry.counter("b").value = 2
        registry.counter("a").value = 1
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap == {"a": 1, "b": 2}


class TestScopes:
    def test_scope_prefixes_and_strips(self):
        registry = CounterRegistry()
        scope = registry.scope("element.rt")
        scope.counter("drops").value = 4
        assert registry.get("element.rt.drops") == 4
        assert scope.snapshot() == {"drops": 4}
        scope.reset()
        assert registry.get("element.rt.drops") == 0


class TestSnapshotAlgebra:
    def test_delta(self):
        old = {"a": 1, "b": 5}
        new = {"a": 4, "b": 5, "c": 2}
        assert delta(new, old) == {"a": 3, "b": 0, "c": 2}
