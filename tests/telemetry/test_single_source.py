"""One storage cell per statistic: every view reads the same registry."""

import pytest

from repro.click.driver import RunStats
from repro.core.nfs import router
from repro.hw.counters import PerfCounters
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
        # The measured run's counter snapshot mirrors the driver ledger.
        assert run.counters["rx_nombuf"] == stats.rx_nombuf
        assert run.counters["sw_drops"] == stats.drops
        assert run.rx_nombuf == run.counters["rx_nombuf"]
        assert run.ledger["sw_drops"] == stats.drops
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
