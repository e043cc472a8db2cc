"""Tests for the pass manager."""

import pytest

from repro.compiler.ir import Compute, DirectCall, ParamRead, Program, VirtualCall
from repro.compiler.passes.transforms import DEAD_NOTE
from repro.compiler.pipeline import PassManager
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
        assert manager.total_removed_ops() == 3  # param, dead compute, call

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
        assert binary.pass_manager.total_removed_ops() > 0
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
