"""Gating a build on its analysis, and the verifier inside the analysis's
compile step."""

import pytest

from repro.analyze import AnalysisError, analyze_config
from repro.core.nfs import forwarder, router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import ProfileError
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.telemetry.registry import CounterRegistry

pytestmark = pytest.mark.analyze

SHADOWED = (
    "input :: FromDPDKDevice(PORT 0);"
    "output :: ToDPDKDevice(PORT 0);"
    "c :: IPClassifier(-, tcp);"
    "input -> c; c[0] -> output; c[1] -> output;"
)


@pytest.fixture(autouse=True)
def fresh_caches():
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def _mill(config, **kwargs):
    return PacketMill(config, BuildOptions.packetmill(),
                      params=MachineParams().at_frequency(2.3), **kwargs)


def test_analyze_error_mode_builds_clean_configs():
    mill = _mill(router())
    mill.analysis().raise_on_errors()
    assert mill.analysis().ok
    assert mill.build().exec_programs


def test_analyze_error_mode_refuses_unsound_configs():
    mill = _mill(SHADOWED)
    with pytest.raises(AnalysisError, match="classifier-shadowed-rule"):
        mill.analysis().raise_on_errors()


def test_analyze_warn_mode_attaches_report_without_gating():
    mill = _mill(SHADOWED)
    assert not mill.analysis().ok
    assert mill.build().exec_programs


def test_analyze_defaults_off(monkeypatch):
    import repro.analyze.api as api

    def refuse(*args, **kwargs):
        raise AssertionError("a build ran the analyzer")

    monkeypatch.setattr(api, "analyze_graph", refuse)
    binary = _mill(SHADOWED).build()
    assert not hasattr(binary, "analysis")


def test_findings_are_counted_in_telemetry():
    registry = CounterRegistry()
    report = analyze_config(router(), BuildOptions.packetmill(),
                            registry=registry)
    total = registry.counter("analyze.findings").value
    assert total == len(report.findings) > 0
    assert registry.counter("analyze.error").value == 0
    assert (
        registry.counter("analyze.rule.meta-dead-store").value
        == len(report.by_rule("meta-dead-store"))
    )


def test_verifier_runs_in_pipeline_with_zero_violations(monkeypatch):
    # Acceptance bar: across every pass of the full PacketMill pipeline,
    # the verifier the analysis attaches sees zero violations for shipped
    # configs.
    import repro.analyze.verifier as verifier

    verified = []

    def spy(program, registry, **kwargs):
        verified.append(kwargs.get("location", ""))
        return verify(program, registry, **kwargs)

    verify = verifier.verify_program
    monkeypatch.setattr(verifier, "verify_program", spy)
    for config in (forwarder(), router()):
        verified.clear()
        report = analyze_config(config, BuildOptions.packetmill())
        assert any(where.startswith("after pass") for where in verified)
        assert [f for f in report.findings
                if f.location.startswith("after pass")] == []


def test_mill_analysis_is_cached_per_instance():
    mill = _mill(router())
    assert mill.analysis() is mill.analysis()


def test_unknown_analyze_mode_is_rejected():
    # Builds do not analyze: no analyze mode is a RunProfile field.
    for mode in ("loud", "error", "warn", True):
        with pytest.raises(ProfileError,
                           match="unknown RunProfile field 'analyze'"):
            _mill(router(), analyze=mode)
