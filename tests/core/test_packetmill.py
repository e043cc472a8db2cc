"""Integration tests for the PacketMill build pipeline (paper Fig. 3)."""

import os
import subprocess
import sys

import pytest

from repro.core import nfs
from repro.core.options import BuildOptions, MetadataModel
from repro.core.packetmill import BuildError, PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def mill(config=None, options=None, freq=2.3, frame=256, seed=0):
    params = MachineParams(freq_ghz=freq)
    trace = lambda port, core: FixedSizeTraceGenerator(frame, TraceSpec(seed=seed + port))
    return PacketMill(config or nfs.forwarder(), options or BuildOptions.vanilla(),
                      params=params, trace=trace, seed=seed)


class TestBuild:
    def test_build_produces_runnable_binary(self):
        binary = mill().build()
        run = binary.measure(batches=20, warmup_batches=10)
        assert run.packets == 640
        assert run.elapsed_ns > 0
        assert run.ipc > 0

    def test_default_build_does_not_import_the_analyzer(self):
        # Static analysis runs only through mill.analysis(); a build
        # must not pay for importing it.
        script = (
            "import sys\n"
            "from repro.core import nfs\n"
            "from repro.core.options import BuildOptions\n"
            "from repro.core.packetmill import PacketMill\n"
            "PacketMill(nfs.forwarder(), BuildOptions.packetmill()).build()\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['repro', 'analyze']))\n"
        )
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_static_graph_allocates_static_state(self):
        binary = mill(options=BuildOptions.static()).build()
        kinds = {e.state_region.kind for e in binary.graph.all_elements()}
        assert kinds == {"static"}

    def test_dynamic_graph_allocates_heap_state(self):
        binary = mill(options=BuildOptions.vanilla()).build()
        kinds = {e.state_region.kind for e in binary.graph.all_elements()}
        assert kinds == {"heap"}

    def test_constant_embedding_removes_param_loads(self):
        vanilla = mill(options=BuildOptions.vanilla()).build()
        constant = mill(options=BuildOptions.constant()).build()
        for name, program in constant.exec_programs.items():
            base = vanilla.exec_programs[name]
            assert len(program.mem_ops) <= len(base.mem_ops)
            assert program.instructions <= base.instructions
        total_base = sum(p.instructions for p in vanilla.exec_programs.values())
        total_const = sum(p.instructions for p in constant.exec_programs.values())
        assert total_const < total_base

    def test_metadata_models_selected(self):
        for model in MetadataModel:
            binary = mill(options=BuildOptions.metadata(model)).build()
            assert binary.model.name == model.value

    def test_no_dpdk_ports_rejected(self):
        bad = PacketMill("a :: Counter -> Discard;", BuildOptions.vanilla())
        with pytest.raises(BuildError):
            bad.build()

    def test_shared_trace_instance(self):
        trace = FixedSizeTraceGenerator(128, TraceSpec(seed=3))
        binary = PacketMill(nfs.forwarder(), trace=trace).build()
        assert binary.trace is trace


class TestBurstFromConfig:
    """The configuration's FromDPDKDevice BURST is the build's one burst."""

    def test_driver_drains_by_the_config_burst(self):
        assert PacketMill(nfs.forwarder(burst=16)).build().driver.burst == 16

    def test_largest_rx_burst_wins(self):
        binary = PacketMill(nfs.forwarder_two_nics().replace(
            "PORT 1, N_QUEUES 1, BURST 32", "PORT 1, N_QUEUES 1, BURST 64"
        )).build()
        assert binary.driver.burst == 64

    def test_rss_ingest_budget_follows_the_config_burst(self):
        runtime = PacketMill(nfs.forwarder(burst=16), n_cores=2).build_sharded()
        assert runtime.ports[0].ingest_budget == max(64, 4 * 16 * 2)


class TestReordering:
    def test_reorder_changes_packet_layout(self):
        plain = mill(options=BuildOptions(lto=True)).build()
        reordered = mill(options=BuildOptions.lto_reorder()).build()
        plain_offsets = {
            f.name: plain.packet_layout().offset_of(f.name)
            for f in plain.packet_layout().fields
        }
        hot_offsets = {
            f.name: reordered.packet_layout().offset_of(f.name)
            for f in reordered.packet_layout().fields
        }
        assert plain_offsets != hot_offsets

    def test_reorder_packs_hot_fields_into_line0(self):
        reordered = mill(config=nfs.router(), options=BuildOptions.lto_reorder()).build()
        layout = reordered.packet_layout()
        # The RX-conversion-written fields end up in the first cache line.
        hot = ["length", "data_ptr", "rss_anno", "vlan_anno"]
        for name in hot:
            assert layout.offset_of(name) + layout.field(name).size <= 64, name

    def test_reorder_reduces_meta_lines_touched(self):
        plain = mill(options=BuildOptions(lto=True)).build()
        reordered = mill(options=BuildOptions.lto_reorder()).build()

        def meta_lines(binary):
            lines = set()
            for program in binary.exec_programs.values():
                for op in program.mem_ops:
                    if op.target == "packet_meta":
                        lines.add(op.offset // 64)
            for program in (binary.pmds[0].rx_exec, binary.pmds[0].tx_exec):
                for op in program.mem_ops:
                    if op.target == "packet_meta":
                        lines.add(op.offset // 64)
            return len(lines)

        assert meta_lines(reordered) < meta_lines(plain)

    def test_reorder_improves_forwarder_performance(self):
        plain = mill(options=BuildOptions(lto=True)).build()
        reordered = mill(options=BuildOptions.lto_reorder()).build()
        plain_run = plain.measure(batches=120, warmup_batches=60)
        reordered_run = reordered.measure(batches=120, warmup_batches=60)
        assert reordered_run.ns_per_packet < plain_run.ns_per_packet

    def test_reorder_rejected_for_xchange(self):
        with pytest.raises(Exception):
            mill(options=BuildOptions(
                lto=True, reorder_metadata=True,
                metadata_model=MetadataModel.XCHANGE,
            )).build()


class TestVariantOrdering:
    """The headline performance relationships, as an integration test."""

    def _ns(self, options, config=None):
        binary = mill(config=config or nfs.router(), options=options, frame=1024).build()
        return binary.measure(batches=120, warmup_batches=60).ns_per_packet

    def test_full_ordering_on_router(self):
        vanilla = self._ns(BuildOptions.vanilla())
        static = self._ns(BuildOptions.static())
        all_opts = self._ns(BuildOptions.all_code_opts())
        packetmill = self._ns(BuildOptions.packetmill())
        assert packetmill < all_opts < static < vanilla

    def test_metadata_ordering_on_forwarder(self):
        copying = self._ns(BuildOptions.metadata(MetadataModel.COPYING), nfs.forwarder())
        overlay = self._ns(BuildOptions.metadata(MetadataModel.OVERLAYING), nfs.forwarder())
        xchange = self._ns(BuildOptions.metadata(MetadataModel.XCHANGE), nfs.forwarder())
        assert xchange < overlay < copying
