"""One storage cell per statistic: every view reads the same registry."""

import pytest

from repro.click.driver import RunStats
from repro.core.nfs import forwarder, router
from repro.hw.counters import PERF_FIELDS, PerfCounters
from repro.telemetry.ledger import NIC_FIELDS
from repro.telemetry.registry import CounterRegistry

from tests.telemetry.conftest import build

pytestmark = pytest.mark.telemetry


class TestSharedStorage:
    def test_runstats_and_registry_read_the_same_cell(self):
        registry = CounterRegistry()
        stats = RunStats(registry)
        stats.rx_packets = 7
        assert registry.get("driver.rx_packets") == 7
        registry.counter("driver.rx_packets").value = 11
        assert stats.rx_packets == 11
        # The hardware drop attributes read the run's NIC delta cells.
        stats.imissed = 3
        assert registry.get("driver.hw.imissed") == 3
        assert stats.hw_counters["imissed"] == 3
        assert "driver.imissed" not in registry

    def test_perfcounters_and_registry_read_the_same_cell(self):
        registry = CounterRegistry()
        counters = PerfCounters(registry, "cpu")
        counters.llc_misses += 9
        assert registry.get("cpu.llc_misses") == 9

    def test_keyword_construction_still_works(self):
        counters = PerfCounters(llc_loads=500, packets=100)
        assert counters.llc_loads == 500
        assert counters.per_packet("llc_loads") == 5.0
        with pytest.raises(TypeError):
            PerfCounters(unknown_field=1)
        stats = RunStats(rx_nombuf=1)
        assert stats.rx_nombuf == 1
        stats = RunStats(errors_by_element={"nat": 2})
        assert stats.errors_by_element == {"nat": 2}


class TestLiveRunViews:
    def test_xstats_runstats_and_perfcounters_agree(self):
        binary = build(config=router())
        run = binary.measure(batches=60, warmup_batches=30)
        stats = binary.driver.stats
        registry = binary.telemetry.registry
        # NIC hardware ledger: xstats == registry == RunStats hw view.
        broker_view = binary.graph.by_class("FromDPDKDevice")[0].xstats()
        for name in ("rx_nombuf", "imissed", "rx_errors"):
            port_name = "nic.0.%s" % name
            assert broker_view[name] == registry.get(port_name)
        # The measured run's counters carry the driver's ledger.
        assert run.counters["rx_nombuf"] == stats.rx_nombuf
        assert run.counters["sw_drops"] == stats.drops
        for name, value in stats.ledger().items():
            assert run.counters[name] == value
        # Per-element drops live under element.<name>.drops.
        for name, count in stats.drops_by_element.items():
            assert registry.get("element.%s.drops" % name) == count

    def test_old_attribute_names_keep_working(self):
        binary = build(config=router())
        binary.driver.run_batches(40)
        stats = binary.driver.stats
        # The pre-registry RunStats surface, unchanged.
        assert stats.batches == 40
        assert stats.rx_packets > 0
        assert stats.tx_packets > 0
        assert isinstance(stats.drops_by_element, dict)
        assert isinstance(stats.hw_counters, dict)
        assert stats.dropped_total >= 0
        snapshot = stats.snapshot()
        assert snapshot["rx_packets"] == stats.rx_packets

    def test_freeze_detaches_from_live_registry(self):
        binary = build(config=router())
        binary.driver.run_batches(40)
        frozen = binary.driver.stats
        rx_before = frozen.rx_packets
        binary.driver.reset_stats()
        assert binary.driver.stats.rx_packets == 0
        binary.driver.run_batches(10)
        # The frozen stats kept their values; the new view counts afresh.
        assert frozen.rx_packets == rx_before
        assert binary.driver.stats.batches == 10

    def test_multicore_aggregation_merges_replicas(self):
        from repro.core.packetmill import PacketMill

        runtime = PacketMill(router(), telemetry=True, n_cores=2).build_sharded()
        runtime.run_batches(20)
        total = runtime.registry.snapshot()
        assert total["driver.rx_packets"] == sum(
            b.driver.stats.rx_packets for b in runtime.replicas
        )
        assert total["driver.batches"] == 40

    def test_equal_runs_compare_equal(self):
        first = build(config=router(), seed=3)
        second = build(config=router(), seed=3)
        first.driver.run_batches(30)
        second.driver.run_batches(30)
        assert first.driver.stats == second.driver.stats
        assert first.cpu.counters == second.cpu.counters


class TestOneCellPerDrop:
    def test_each_nic_statistic_has_one_port_cell_and_one_run_cell(self):
        binary = build(config=forwarder())
        binary.measure(batches=40, warmup_batches=20)
        names = binary.telemetry.registry.names()
        for stat in NIC_FIELDS:
            holders = [name for name in names
                       if name.rpartition(".")[2] == stat]
            # Cumulative on the port, this run's delta under driver.hw.;
            # no driver.<stat> or cpu.<stat> copy.
            assert holders == ["driver.hw." + stat, "nic.0." + stat]

    def test_cpu_scope_holds_only_perf_events(self):
        binary = build(config=forwarder())
        binary.measure(batches=40, warmup_batches=20)
        registry = binary.telemetry.registry
        assert registry.names("cpu.*") == sorted(
            "cpu." + name for name in PERF_FIELDS)
        assert registry.names("driver.watchdog_resets") == [
            "driver.watchdog_resets"]
        assert registry.names("*.sw_drops") == []
        assert registry.names("*.element_errors") == []

    def test_measured_run_counter_keys_are_pinned(self):
        run = build(config=forwarder()).measure(batches=20, warmup_batches=10)
        assert list(run.counters) == [
            "instructions", "l1_hits", "l2_hits", "llc_loads", "llc_hits",
            "llc_misses", "dtlb_walks", "branch_misses", "ddio_fills",
            "packets", "rx_nombuf", "imissed", "rx_errors", "tx_full",
            "sw_drops", "element_errors", "watchdog_resets",
        ]
