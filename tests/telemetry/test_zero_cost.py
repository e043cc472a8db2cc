"""Telemetry must observe, never perturb: on/off runs are bit-identical."""

import pytest

from repro.core.nfs import forwarder, router
from repro.core.packetmill import PacketMill
from repro.experiments import fig01
from repro.experiments.common import SMOKE
from repro.telemetry import TelemetryConfig

from tests.telemetry.conftest import build

pytestmark = pytest.mark.telemetry


def measurement_tuple(run):
    """Every numeric output a figure/report could consume."""
    return (
        run.packets,
        run.tx_packets,
        run.tx_bytes,
        run.drops,
        run.elapsed_ns,
        run.instructions,
        run.total_cycles,
        run.counters,
    )


class TestBitIdentical:
    @pytest.mark.parametrize("config", [forwarder, router])
    def test_measured_run_identical_with_telemetry_on_and_off(self, config):
        on = build(config=config(), telemetry=TelemetryConfig(), seed=5)
        off = build(config=config(), telemetry=None, seed=5)
        run_on = on.measure(batches=80, warmup_batches=40)
        run_off = off.measure(batches=80, warmup_batches=40)
        assert measurement_tuple(run_on) == measurement_tuple(run_off)
        assert run_on.stats == run_off.stats

    def test_fig01_is_deterministic_with_telemetry_disabled(self):
        first = fig01.run(SMOKE)
        second = fig01.run(SMOKE)
        assert first.to_json() == second.to_json()
        assert fig01.format_table(first) == fig01.format_table(second)


class TestDisabledSurface:
    def test_default_build_has_no_recorders(self):
        binary = build(telemetry=None)
        telemetry = binary.telemetry
        assert not telemetry.enabled
        assert telemetry.sampler is None
        assert telemetry.attribution is None
        assert telemetry.spans is None
        # Counter storage is still live (it IS the stats).
        binary.driver.run_batches(10)
        assert telemetry.registry.get("driver.batches") == 10
        # Rendering degrades gracefully instead of raising.
        assert telemetry.flamegraph() == "(spans disabled)"
        assert telemetry.top() == "(attribution disabled)"
        assert telemetry.windows_table() == "(window sampling disabled)"

    def test_config_knobs_gate_each_recorder(self):
        mill_config = TelemetryConfig(windows=False, attribution=True, spans=False)
        binary = build(telemetry=mill_config)
        telemetry = binary.telemetry
        assert telemetry.sampler is None
        assert telemetry.attribution is not None
        assert telemetry.spans is None
        binary.driver.run_batches(10)
        assert telemetry.attribution.buckets()

    def test_telemetry_true_enables_everything(self):
        mill = PacketMill(forwarder(), telemetry=True)
        binary = mill.build()
        assert binary.telemetry.enabled
        assert binary.telemetry.sampler is not None
        assert binary.telemetry.attribution is not None
        assert binary.telemetry.spans is not None
