"""Tests for throughput measurement and physical rate ceilings."""

import pytest

from repro.core import nfs
from repro.core.options import BuildOptions, MetadataModel
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec
from repro.perf.runner import _apply_ceilings, measure_sharded, measure_throughput


def build(config=None, options=None, freq=2.3, frame=1024, seed=0, **fields):
    params = MachineParams(freq_ghz=freq)
    trace = lambda port, core: FixedSizeTraceGenerator(frame, TraceSpec(seed=seed + port))
    return PacketMill(config or nfs.forwarder(), options or BuildOptions.vanilla(),
                      params=params, trace=trace, seed=seed, **fields)


class TestCeilings:
    def test_cpu_bound_when_slow(self):
        pps, bound = _apply_ceilings(1e6, 1024, MachineParams(), n_ports=1)
        assert bound == "cpu"
        assert pps == 1e6

    def test_link_bound_for_fast_cpu_large_frames(self):
        params = MachineParams(pcie_gbps=1000.0, nic_queue_pps_limit=1e9)
        pps, bound = _apply_ceilings(1e9, 1500, params, n_ports=1)
        assert bound == "link"
        assert pps == pytest.approx(params.line_rate_pps(1500))

    def test_queue_bound_for_fast_cpu_small_frames(self):
        pps, bound = _apply_ceilings(1e9, 64, MachineParams(), n_ports=1)
        assert bound == "queue"

    def test_ports_scale_ceilings(self):
        params = MachineParams()
        one, _ = _apply_ceilings(1e9, 64, params, n_ports=1)
        two, _ = _apply_ceilings(1e9, 64, params, n_ports=2)
        assert two == pytest.approx(2 * one)


class TestMeasureThroughput:
    def test_basic_measurement(self):
        point = measure_throughput(build().build(), batches=60, warmup_batches=30)
        assert point.pps > 1e6
        assert point.gbps == pytest.approx(point.pps * 1024 * 8 / 1e9, rel=1e-6)
        assert point.mean_frame_len == 1024
        assert point.bound_by in ("cpu", "queue", "pcie", "link")

    def test_throughput_scales_with_frequency(self):
        slow = measure_throughput(build(freq=1.2).build(), batches=60, warmup_batches=30)
        fast = measure_throughput(build(freq=2.4).build(), batches=60, warmup_batches=30)
        assert fast.cpu_pps > slow.cpu_pps * 1.5

    def test_counter_per_window(self):
        point = measure_throughput(build().build(), batches=60, warmup_batches=30)
        per_window = point.counter_per_window("llc_loads")
        expected = (
            point.run.counters["llc_loads"] / point.run.packets * point.pps * 0.1
        )
        assert per_window == pytest.approx(expected)

    def test_xchange_caps_at_physical_limit_when_fast(self):
        binary = build(options=BuildOptions.metadata(MetadataModel.XCHANGE), freq=3.0).build()
        point = measure_throughput(binary, batches=60, warmup_batches=30)
        assert point.bound_by != "cpu"
        assert point.pps < point.cpu_pps


class TestMeasureMulticore:
    def test_two_cores_roughly_double(self):
        mill = build(config=nfs.nat_router(), frame=1024, n_cores=1)
        one = measure_sharded(mill.build_sharded(), batches=40, warmup_batches=20)
        mill2 = build(config=nfs.nat_router(), frame=1024, n_cores=2)
        two = measure_sharded(mill2.build_sharded(), batches=40, warmup_batches=20)
        assert two.cpu_pps > one.cpu_pps * 1.7
