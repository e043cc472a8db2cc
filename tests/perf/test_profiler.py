"""Tests for the per-element profile over cycle attribution."""

import math

import pytest

from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec
from repro.perf.profiler import CACHE_EVENTS, ProfileError, ProfileReport
from repro.telemetry import TelemetryConfig


def build(config, options=None, telemetry=True):
    trace = lambda port, core: FixedSizeTraceGenerator(512, TraceSpec(seed=6))
    if telemetry:
        telemetry = TelemetryConfig(windows=False, spans=False)
    return PacketMill(config, options or BuildOptions.vanilla(),
                      params=MachineParams(), trace=trace,
                      telemetry=telemetry).build()


def profile(binary, batches, warmup_batches):
    run = binary.measure(batches=batches, warmup_batches=warmup_batches)
    return ProfileReport.from_binary(binary), run


class TestProfiler:
    def test_attribution_sums_to_total(self):
        """Every bucket, ``driver`` included, tiles the measured run."""
        binary = build(nfs.router())
        report, run = profile(binary, batches=60, warmup_batches=30)
        profiles = report.elements.values()
        assert math.isclose(sum(p.cycles for p in profiles), run.total_cycles,
                            rel_tol=1e-12)
        assert math.isclose(sum(p.ns for p in profiles), run.elapsed_ns,
                            rel_tol=1e-12)
        assert math.isclose(sum(p.instructions for p in profiles),
                            run.instructions, rel_tol=1e-12)
        for event in CACHE_EVENTS:
            assert sum(p.events.get(event, 0) for p in profiles) \
                == run.counters[event], event
        assert report.total_ns == run.elapsed_ns
        assert report.total_packets == run.packets

    def test_every_traversed_element_charged(self):
        binary = build(nfs.router())
        report, _ = profile(binary, batches=40, warmup_batches=20)
        for name in ("c", "rt", "dec"):
            assert report.elements[name].packets > 0
            assert report.elements[name].ns > 0

    def test_pmd_paths_present(self):
        binary = build(nfs.forwarder())
        report, run = profile(binary, batches=40, warmup_batches=20)
        assert report.elements["pmd.rx"].ns > 0
        assert report.elements["pmd.tx"].ns > 0
        assert report.elements["pmd.rx"].packets == run.packets
        assert report.elements["pmd.tx"].packets == run.tx_packets

    def test_untraversed_elements_zero(self):
        binary = build(nfs.router())
        report, _ = profile(binary, batches=40, warmup_batches=20)
        # No ARP traffic in the trace: the responder never runs.
        arp = binary.graph.by_class("ARPResponder")[0].name
        assert report.elements[arp].packets == 0

    def test_finds_the_hot_element(self):
        """A memory-heavy WorkPackage must dominate the profile."""
        binary = build(nfs.workpackage_forwarder(16, 5, 20))
        report, _ = profile(binary, batches=60, warmup_batches=30)
        hot = report.hottest()
        assert hot.class_name in ("WorkPackage", "MlxPmd")
        wp = next(p for p in report.elements.values()
                  if p.class_name == "WorkPackage")
        assert report.share(wp.name) > 0.25

    def test_unattributed_build_is_refused(self):
        binary = build(nfs.forwarder(), telemetry=None)
        binary.measure(batches=10, warmup_batches=5)
        with pytest.raises(ProfileError, match="attribution"):
            ProfileReport.from_binary(binary)

    def test_format_table(self):
        binary = build(nfs.router())
        report, _ = profile(binary, batches=30, warmup_batches=15)
        table = report.format_table()
        assert "ns/pkt" in table
        assert "rt" in table
        assert "total:" in table
