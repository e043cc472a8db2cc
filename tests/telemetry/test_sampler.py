"""WindowSampler: window closing, partial flush, monotone snapshots."""

import pytest

from repro.telemetry.registry import CounterRegistry
from repro.telemetry.sampler import PAPER_WINDOW_NS, WindowSampler

from tests.telemetry.conftest import build

pytestmark = pytest.mark.telemetry


def make():
    registry = CounterRegistry()
    handle = registry.counter("driver.rx_packets")
    sampler = WindowSampler(registry, window_ns=100.0)
    sampler.restart(0.0)
    return registry, handle, sampler


class TestWindowing:
    def test_no_window_before_the_edge(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.observe(99.0)
        assert sampler.windows == []

    def test_window_closes_past_the_edge(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.observe(130.0)
        assert len(sampler.windows) == 1
        window = sampler.windows[0]
        assert window.t_start_ns == 0.0
        assert window.t_end_ns == 100.0
        assert window.values["driver.rx_packets"] == 10
        assert not window.partial

    def test_multi_window_jump_charges_the_first(self):
        _, handle, sampler = make()
        handle.value = 30
        sampler.observe(350.0)
        assert [w.values["driver.rx_packets"] for w in sampler.windows] == [30, 0, 0]
        assert sampler.series("driver.rx_packets") == [30, 0, 0]

    def test_flush_closes_trailing_partial(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.observe(130.0)
        handle.value = 17
        sampler.flush(150.0)
        assert len(sampler.windows) == 2
        tail = sampler.windows[-1]
        assert tail.partial
        assert tail.t_start_ns == 100.0 and tail.t_end_ns == 150.0
        assert tail.values["driver.rx_packets"] == 7
        # A flush at the origin records nothing.
        sampler.flush(150.0)
        assert len(sampler.windows) == 2

    def test_cumulative_snapshots_are_monotone_for_counters(self):
        _, handle, sampler = make()
        for tick in range(1, 12):
            handle.value += tick
            sampler.observe(tick * 40.0)
        series = sampler.cumulative_series("driver.rx_packets")
        assert series == sorted(series)
        assert sum(sampler.series("driver.rx_packets")) == series[-1]

    def test_restart_drops_history(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.observe(150.0)
        sampler.restart(150.0)
        assert sampler.windows == []
        handle.value = 25
        sampler.observe(260.0)
        assert sampler.windows[0].values["driver.rx_packets"] == 15


class TestNormalization:
    def test_per_100ms_scales_by_duration(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.flush(50.0)  # one partial 50 ns window
        window = sampler.windows[0]
        assert window.per_100ms("driver.rx_packets") == pytest.approx(
            10 * PAPER_WINDOW_NS / 50.0
        )
        assert window.rate_per_s("driver.rx_packets") == pytest.approx(10 * 1e9 / 50.0)

    def test_paper_view_and_table(self):
        _, handle, sampler = make()
        handle.value = 10
        sampler.observe(130.0)
        sampler.flush(150.0)
        view = [w.per_100ms("driver.rx_packets") for w in sampler.windows]
        assert len(view) == 2
        table = sampler.format_table(["driver.rx_packets"])
        assert "rx_packets" in table
        assert "(partial)" in table

    def test_to_records(self):
        _, handle, sampler = make()
        handle.value = 3
        sampler.observe(110.0)
        records = sampler.to_records()
        assert records[0]["window"] == 0
        assert records[0]["driver.rx_packets"] == 3


class TestDriverIntegration:
    def test_run_produces_windows_over_simulated_time(self):
        binary = build()
        binary.driver.run_batches(200)
        sampler = binary.telemetry.sampler
        assert sampler.windows, "a 200-batch run should span at least one window"
        # Windows tile the run: contiguous, positive duration.
        for earlier, later in zip(sampler.windows, sampler.windows[1:]):
            assert later.t_start_ns >= earlier.t_end_ns - 1e-6
        total = sum(w.values.get("driver.rx_packets", 0) for w in sampler.windows)
        assert total == binary.driver.stats.rx_packets
