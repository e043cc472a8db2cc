"""Tests for SpecializedBinary and MeasuredRun."""

import pytest

from repro.core import nfs
from repro.core.binary import MeasuredRun
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def build(options=None):
    trace = lambda port, core: FixedSizeTraceGenerator(512, TraceSpec(seed=4))
    return PacketMill(nfs.forwarder(), options or BuildOptions.vanilla(),
                      params=MachineParams(freq_ghz=2.0), trace=trace).build()


class TestMeasuredRun:
    def _run(self):
        return MeasuredRun(
            packets=1000, tx_packets=1000, tx_bytes=512000, drops=0,
            elapsed_ns=100_000.0, instructions=500_000.0,
            total_cycles=250_000.0, counters={"llc_loads": 1000},
        )

    def test_derived_metrics(self):
        run = self._run()
        assert run.ns_per_packet == 100.0
        assert run.cycles_per_packet == 250.0
        assert run.ipc == 2.0
        assert run.mean_frame_len == 512.0

    def test_at_frequency_reevaluates_time_and_copies_counters(self):
        run = self._run()
        run.core_cycles, run.uncore_ns = 150_000.0, 20_000.0
        at2 = run.at_frequency(2.0)
        assert at2.elapsed_ns == 150_000.0 / 2.0 + 20_000.0
        assert at2.total_cycles == 150_000.0 + 20_000.0 * 2.0
        assert at2.counters == run.counters
        assert at2.counters is not run.counters
        assert (at2.packets, at2.instructions, at2.core_cycles) == (
            run.packets, run.instructions, run.core_cycles)

    def test_zero_packets_safe(self):
        run = MeasuredRun(0, 0, 0, 0, 0.0, 0.0, 0.0, {})
        assert run.ns_per_packet == float("inf")
        assert run.ipc == 0.0
        assert run.mean_frame_len == 0.0


class TestSpecializedBinary:
    def test_measure_resets_then_accumulates(self):
        binary = build()
        first = binary.measure(batches=60, warmup_batches=60)
        second = binary.measure(batches=60, warmup_batches=60)
        assert first.packets == second.packets == 60 * 32
        # Steady state: repeated measurements agree (cache warm-up tails
        # and dispatch sampling keep a little noise).
        assert second.ns_per_packet == pytest.approx(first.ns_per_packet, rel=0.12)

    def test_warmup_resets_counters(self):
        binary = build()
        binary.warmup(10)
        assert binary.cpu.elapsed_ns() == 0
        assert binary.driver.stats.rx_packets == 0

    def test_describe(self):
        binary = build(BuildOptions.packetmill())
        text = binary.describe()
        assert "xchange" in text
        assert "elements: 3" in text
        assert "2.0 GHz" in text

    def test_element_accessor(self):
        binary = build()
        assert binary.element("input").decl.class_name == "FromDPDKDevice"
        with pytest.raises(KeyError):
            binary.element("nope")

    def test_packet_layout_accessor(self):
        binary = build()
        assert binary.packet_layout().has_field("length")

    def test_run_without_warmup_includes_cold_misses(self):
        cold = build()
        cold_run = cold.run(20)
        warm = build()
        warm_run = warm.measure(batches=20, warmup_batches=60)
        assert cold_run.counters["llc_misses"] > warm_run.counters["llc_misses"]
