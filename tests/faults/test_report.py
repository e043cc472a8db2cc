"""Tests for run-health reporting and the DPDK-device stat handlers."""

from repro.click.driver import RunStats
from repro.click.handlers import HandlerBroker
from repro.faults import CORRUPT, MBUF_EXHAUSTION, FaultSchedule, FaultSpec
from repro.perf.report import (
    FAULT_DEGRADED,
    HEALTHY,
    classify,
    drop_breakdown,
    format_report,
)

from tests.faults.conftest import build_forwarder


class TestClassify:
    def test_clean_stats_are_healthy(self):
        assert classify(RunStats(rx_packets=100, tx_packets=100)) == HEALTHY

    def test_any_ledger_entry_degrades(self):
        assert classify(RunStats(rx_nombuf=1)) == FAULT_DEGRADED
        assert classify(RunStats(imissed=1)) == FAULT_DEGRADED
        assert classify(RunStats(rx_errors=1)) == FAULT_DEGRADED
        assert classify(RunStats(tx_full=1)) == FAULT_DEGRADED
        assert classify(RunStats(error_batches=1)) == FAULT_DEGRADED
        assert classify(RunStats(watchdog_resets=1)) == FAULT_DEGRADED

    def test_counter_snapshot_accepted_too(self):
        snapshot = {"rx_nombuf": 0, "imissed": 3}
        assert classify(snapshot) == FAULT_DEGRADED
        assert drop_breakdown(snapshot) == {"imissed": 3}

    def test_pipeline_drops_alone_stay_healthy(self):
        # An NF that *discards* by design (e.g. a filter) is not degraded.
        assert classify(RunStats(rx_packets=10, drops=10)) == HEALTHY


class TestFormatReport:
    def test_healthy_report_names_the_bound(self):
        report = format_report(RunStats(rx_packets=5, tx_packets=5),
                               bound_by="cpu", label="fig1")
        assert report.startswith("fig1: healthy")
        assert "bound by: cpu" in report

    def test_degraded_report_lists_nonzero_entries_only(self):
        stats = RunStats(rx_packets=90, tx_packets=80, rx_nombuf=7)
        report = format_report(stats)
        assert "fault-degraded" in report
        assert "rx_nombuf" in report
        assert "imissed" not in report

    def test_degraded_report_names_raising_elements(self):
        stats = RunStats(error_batches=2,
                         errors_by_element={"nat": 2})
        assert "error boundary at nat" in format_report(stats)


class TestMeasuredRunLedger:
    def test_measured_run_reports_drop_ledger(self):
        schedule = FaultSchedule(
            [FaultSpec(MBUF_EXHAUSTION, start=5, stop=40),
             FaultSpec(CORRUPT, start=0, stop=80, probability=0.05)],
            seed=9)
        binary = build_forwarder(faults=schedule)
        run = binary.run(100)
        assert run.counters["rx_nombuf"] == run.stats.rx_nombuf > 0
        assert run.counters["rx_errors"] == run.stats.rx_errors > 0
        assert run.counters["sw_drops"] == run.stats.drops
        assert classify(run.stats) == FAULT_DEGRADED
        assert classify(run.counters) == FAULT_DEGRADED

    def test_reset_clears_ledger_but_not_port_xstats(self):
        schedule = FaultSchedule([FaultSpec(MBUF_EXHAUSTION, start=5, stop=40)],
                                 seed=9)
        binary = build_forwarder(faults=schedule)
        binary.run(60)
        port_total = binary.driver.registry.get("nic.0.rx_nombuf")
        assert port_total > 0
        binary.reset_measurements()
        stats = binary.driver.stats
        assert not any(stats.ledger().values())
        assert binary.driver.registry.get("driver.hw.rx_nombuf") == 0
        # Port xstats are cumulative, as on real hardware.
        assert binary.driver.registry.get("nic.0.rx_nombuf") == port_total


class TestThroughputPointHealth:
    def test_measure_throughput_carries_the_verdict(self):
        from repro.perf.runner import measure_throughput

        healthy = measure_throughput(build_forwarder(),
                                     batches=60, warmup_batches=30)
        assert not healthy.fault_degraded
        report = format_report(healthy.run.stats, bound_by=healthy.bound_by)
        assert "healthy" in report
        assert "bound by:" in report

        schedule = FaultSchedule([FaultSpec(MBUF_EXHAUSTION)], seed=1)
        starved = measure_throughput(build_forwarder(faults=schedule),
                                     batches=60, warmup_batches=30)
        assert starved.fault_degraded
        assert "fault-degraded" in format_report(starved.run.stats,
                                                 bound_by=starved.bound_by)


class TestDeviceHandlers:
    def test_port_stats_readable_through_handlers(self):
        schedule = FaultSchedule(
            [FaultSpec(MBUF_EXHAUSTION, start=5, stop=20)], seed=3)
        binary = build_forwarder(faults=schedule)
        binary.driver.run_batches(40)
        broker = HandlerBroker(binary.graph)
        assert int(broker.read("input.rx_nombuf")) > 0
        assert broker.read("output.tx_full") == "0"
        xstats = broker.read("input.xstats")
        assert "rx_nombuf:" in xstats and "imissed:" in xstats

    def test_unbound_device_reads_zero(self):
        from repro.click.graph import ProcessingGraph
        from repro.core.nfs import forwarder
        broker = HandlerBroker(ProcessingGraph.from_text(forwarder()))
        assert broker.read("input.rx_nombuf") == "0"
        assert broker.read("input.xstats") == "(unbound)"
