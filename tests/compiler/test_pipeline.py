"""Tests for the pass manager."""

import pytest

from repro.compiler.ir import Compute, DirectCall, ParamRead, Program, VirtualCall
from repro.compiler.passes.transforms import DEAD_NOTE
from repro.compiler.pipeline import PassManager, compile_pmd
from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams


def sample():
    return Program("el", [
        VirtualCall("push"),
        ParamRead("p", offset=0),
        Compute(10, note=DEAD_NOTE),
        Compute(50),
    ])


class TestPassManager:
    def test_runs_in_order(self):
        manager = PassManager.from_options(BuildOptions.all_code_opts())
        names = [name for name, _ in manager.passes]
        assert names == ["devirtualize", "embed-constants", "dead-code", "inline"]

    def test_vanilla_is_empty_pipeline(self):
        manager = PassManager.from_options(BuildOptions.vanilla())
        assert manager.passes == []
        program = sample()
        assert manager.run(program) is program

    def test_records_deltas(self):
        manager = PassManager.from_options(BuildOptions.all_code_opts())
        out = manager.run(sample())
        assert out.count(VirtualCall) == 0
        assert out.count(DirectCall) == 0
        assert out.count(ParamRead) == 0
        devirt = [r for r in manager.records if r.pass_name == "devirtualize"][0]
        assert devirt.ops_before == devirt.ops_after  # replaced, not removed
        inline = [r for r in manager.records if r.pass_name == "inline"][0]
        assert inline.removed_ops == 1

    def test_total_removed(self):
        manager = PassManager.from_options(BuildOptions.all_code_opts())
        manager.run(sample())
        # param, dead compute, call
        assert sum(r.removed_ops for r in manager.records) == 3

    def test_report_lists_changes(self):
        manager = PassManager.from_options(BuildOptions.all_code_opts())
        manager.run(sample())
        report = manager.report()
        assert "devirtualize" in report
        assert "el" in report

    def test_pgo_included(self):
        manager = PassManager.from_options(BuildOptions(pgo=True))
        assert [n for n, _ in manager.passes] == ["pgo"]

    def test_binary_exposes_pass_manager(self):
        binary = PacketMill(nfs.forwarder(), BuildOptions.all_code_opts(),
                            params=MachineParams()).build()
        assert any(r.removed_ops for r in binary.pass_manager.records)
        assert "inline" in binary.pass_manager.report(only_changed=False)


class TestCompileStep:
    def test_cached_builds_report_the_same_passes(self):
        exec_cache.reset_caches()
        options = BuildOptions.all_code_opts()
        first = PacketMill(nfs.forwarder(), options).build()
        second = PacketMill(nfs.forwarder(), options).build()
        assert first.pass_manager.records
        assert second.pass_manager.records == first.pass_manager.records
        assert second.pass_manager.records is not first.pass_manager.records
        runtime = PacketMill(nfs.router(), options, n_cores=2).build_sharded()
        core0, core1 = (b.pass_manager.records for b in runtime.replicas)
        assert core0
        assert core1 == core0
        exec_cache.reset_caches()

    def test_build_and_analysis_share_the_compile_step(self, monkeypatch):
        import repro.compiler.pipeline as pipeline
        import repro.core.packetmill as packetmill

        assert packetmill.compile_graph is pipeline.compile_graph
        compile_graph = pipeline.compile_graph
        verified = []

        def spy(graph, model, options, pass_manager):
            verified.append(pass_manager.verifier is not None)
            return compile_graph(graph, model, options, pass_manager)

        monkeypatch.setattr(packetmill, "compile_graph", spy)
        monkeypatch.setattr(pipeline, "compile_graph", spy)
        exec_cache.reset_caches()
        mill = PacketMill(nfs.forwarder(), BuildOptions.packetmill())
        mill.build()
        mill.analysis()
        # The build compiles bare; the analysis with its verifier attached.
        assert verified == [False, True]
        exec_cache.reset_caches()


#: The PMD's programs under the forwarder's default (Copying) model.
PMD_PROGRAMS = ("pmd_rx_copying", "pmd_tx_copying")
#: Every driver pass, the order compile_pmd applies them in.
DRIVER_OPTIONS = BuildOptions(lto=True, vectorized_pmd=True, pgo=True)


def pmd_passes(records):
    """``{program: [pass, ...]}`` of the PMD programs' records."""
    out = {name: [] for name in PMD_PROGRAMS}
    for record in records:
        if record.program_name in out:
            out[record.program_name].append(record.pass_name)
    return out


class TestCompilePmd:
    def setup_method(self):
        exec_cache.reset_caches()

    def teardown_method(self):
        exec_cache.reset_caches()

    def test_driver_passes_are_recorded(self):
        binary = PacketMill(nfs.forwarder(), DRIVER_OPTIONS).build()
        expected = ["inline", "vectorize", "pgo"]
        assert pmd_passes(binary.pass_manager.records) == {
            name: expected for name in PMD_PROGRAMS}
        report = binary.pass_manager.report(only_changed=False)
        for name in PMD_PROGRAMS:
            assert name in report

    def test_static_graph_does_not_inline_the_pmd(self):
        binary = PacketMill(nfs.forwarder(), BuildOptions.static()).build()
        assert [n for n, _ in binary.pass_manager.passes] == [
            "devirtualize", "inline"]
        assert pmd_passes(binary.pass_manager.records) == {
            name: [] for name in PMD_PROGRAMS}

    def test_cached_and_fresh_builds_report_the_same_records(self,
                                                             monkeypatch):
        cached = PacketMill(nfs.forwarder(), DRIVER_OPTIONS).build()
        assert exec_cache.stats()["build_hits"] == 0
        hit = PacketMill(nfs.forwarder(), DRIVER_OPTIONS).build()
        assert exec_cache.stats()["build_hits"] == 1
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh = PacketMill(nfs.forwarder(), DRIVER_OPTIONS).build()
        assert hit.pass_manager.records == cached.pass_manager.records
        assert fresh.pass_manager.records == cached.pass_manager.records
        assert pmd_passes(fresh.pass_manager.records)["pmd_rx_copying"]

    def test_replicas_share_the_cached_pmd_programs(self):
        runtime = PacketMill(nfs.forwarder(), DRIVER_OPTIONS,
                             n_cores=4).build_sharded()
        cached = exec_cache.lookup_build(nfs.forwarder(), DRIVER_OPTIONS,
                                         runtime.replicas[0].params)
        rx_exec, tx_exec = cached[2]
        pmds = [pmd for binary in runtime.replicas
                for pmd in binary.pmds.values()]
        assert len(pmds) == 4
        for pmd in pmds:
            assert pmd.rx_exec is rx_exec
            assert pmd.tx_exec is tx_exec

    def test_records_are_appended_to_the_callers_manager(self):
        from repro.dpdk.metadata import make_model
        from repro.compiler.structlayout import LayoutRegistry

        model = make_model("copying")
        registry = LayoutRegistry()
        model.register_layouts(registry)
        manager = PassManager.from_options(DRIVER_OPTIONS)
        manager.run(sample())
        rx_exec, tx_exec = compile_pmd(model, DRIVER_OPTIONS, registry,
                                       manager)
        assert [r.program_name for r in manager.records[:2]] == ["el", "el"]
        assert pmd_passes(manager.records) == {
            name: ["inline", "vectorize", "pgo"] for name in PMD_PROGRAMS}
        assert (rx_exec.name, tx_exec.name) == PMD_PROGRAMS
