"""Tests for the baseline frameworks (§4.6 comparison set)."""

import pytest

from repro.frameworks import FRAMEWORK_BUILDERS, l2fwd, l2fwd_xchg
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput

PARAMS = MachineParams(freq_ghz=1.2)

fastclick_forwarder = FRAMEWORK_BUILDERS["FastClick (Copying)"]
bess_forwarder = FRAMEWORK_BUILDERS["BESS"]
vpp_forwarder = FRAMEWORK_BUILDERS["VPP"]
packetmill_forwarder = FRAMEWORK_BUILDERS["PacketMill (X-Change)"]


def rate(builder, frame=256, **kwargs):
    binary = builder(PARAMS, frame, **kwargs)
    return measure_throughput(binary, batches=80, warmup_batches=40)


class TestL2fwd:
    def test_forwards_packets(self):
        app = l2fwd(PARAMS, 256)
        app.warmup(10)
        run = app.run(20)
        assert run.packets == 640
        assert run.tx_packets == 640
        assert run.tx_bytes == 640 * 256

    def test_l2fwd_xchg_uses_minimal_metadata(self):
        app = l2fwd_xchg(PARAMS, 256)
        assert len(app.model.conversions.targets) == 2
        assert app.model.name == "xchange"

    def test_driver_compiled_in_the_compile_step_under_lto(self):
        from repro.compiler.pipeline import PassManager, compile_pmd
        from repro.core.options import BuildOptions, MetadataModel

        app = l2fwd_xchg(PARAMS, 256)
        assert app.options == BuildOptions.metadata(MetadataModel.XCHANGE)
        manager = PassManager()
        programs = compile_pmd(app.model, app.options, app.registry, manager)
        assert (app.pmd.rx_exec, app.pmd.tx_exec) == programs
        assert [r.pass_name for r in manager.records] == ["inline", "inline"]

    def test_l2fwd_xchg_faster(self):
        plain = rate(l2fwd)
        xchg = rate(l2fwd_xchg)
        assert xchg.cpu_pps > plain.cpu_pps * 1.2

    def test_measure_interface(self):
        app = l2fwd(PARAMS, 128)
        run = app.measure(batches=30, warmup_batches=10)
        assert run.ns_per_packet > 0
        assert run.mean_frame_len == 128


class TestFrameworkRelationships:
    def test_registry_complete(self):
        assert len(FRAMEWORK_BUILDERS) == 7

    def test_all_builders_produce_measurable(self):
        for name, builder in FRAMEWORK_BUILDERS.items():
            point = rate(builder)
            assert point.pps > 0, name

    def test_overlaying_frameworks_beat_copying(self):
        fastclick = rate(fastclick_forwarder)
        bess = rate(bess_forwarder)
        assert bess.cpu_pps > fastclick.cpu_pps

    def test_vpp_close_to_fastclick(self):
        fastclick = rate(fastclick_forwarder)
        vpp = rate(vpp_forwarder)
        assert 0.7 < vpp.cpu_pps / fastclick.cpu_pps < 1.3

    def test_packetmill_beats_l2fwd(self):
        """The paper's punchline: the full modular framework with X-Change
        outruns the minimal hand-written DPDK app."""
        pm = rate(packetmill_forwarder)
        plain = rate(l2fwd)
        assert pm.cpu_pps > plain.cpu_pps

    def test_packetmill_is_best_framework(self):
        pm = rate(packetmill_forwarder)
        for builder in (fastclick_forwarder, bess_forwarder, vpp_forwarder):
            assert pm.cpu_pps > rate(builder).cpu_pps
