"""The ExecutionTier API: selection, bit-identity, fallback, counters."""

import pytest

from repro.compiler import codegen
from repro.compiler.runtime import DEFAULT_TIER, ExecutionTier, select_tier
from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import RunProfile
from repro.click.handlers import HandlerBroker
from repro.exec import cache as exec_cache
from repro.faults import MBUF_EXHAUSTION, FaultSchedule, FaultSpec
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    # Selection tests assert the built-in defaults; scrub any ambient
    # tier configuration (e.g. a REPRO_TIER=codegen CI matrix run).
    monkeypatch.delenv("REPRO_TIER", raising=False)
    exec_cache.reset_caches()
    codegen.reset_stats()
    yield
    exec_cache.reset_caches()
    codegen.reset_stats()


def _build(tier=None, **profile_kwargs):
    profile = RunProfile(
        options=BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3),
        tier=tier,
        **profile_kwargs,
    )
    return PacketMill.from_profile(router(), profile).build()


# -- selection ----------------------------------------------------------------


def test_default_tier_is_compiled():
    selection = select_tier()
    assert selection.tier is DEFAULT_TIER is ExecutionTier.COMPILED
    assert not selection.demoted


def test_env_requests_a_tier(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "codegen")
    assert select_tier().tier is ExecutionTier.CODEGEN
    monkeypatch.setenv("REPRO_TIER", "compiled")
    assert select_tier().tier is ExecutionTier.COMPILED


def test_policy_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "compiled")
    selection = select_tier("codegen")
    assert selection.tier is ExecutionTier.CODEGEN


def test_unknown_tier_spelling_is_rejected(monkeypatch):
    # "interpreter" is a retired tier spelling; it fails like any other.
    for spelling in ("jit", "interpreter"):
        with pytest.raises(ValueError, match="unknown execution tier"):
            select_tier(spelling)
        monkeypatch.setenv("REPRO_TIER", spelling)
        with pytest.raises(ValueError, match="unknown execution tier"):
            select_tier()
        monkeypatch.delenv("REPRO_TIER")


def test_codegen_demotes_under_faults_and_watchdog():
    for kwargs in ({"faults": True}, {"watchdog": True}):
        selection = select_tier("codegen", **kwargs)
        assert selection.tier is ExecutionTier.COMPILED
        assert selection.demoted
        assert selection.requested is ExecutionTier.CODEGEN
        assert selection.reason


# -- bit-identity across tiers ------------------------------------------------


def test_run_stats_identical_across_all_tiers():
    snapshots = {}
    points = {}
    for tier in ExecutionTier:
        exec_cache.reset_caches()
        binary = _build(tier=tier)
        assert binary.driver.tier is tier
        points[tier] = measure_throughput(
            binary, batches=60, warmup_batches=30)
        snapshots[tier] = binary.driver.stats.snapshot()
    reference = snapshots[ExecutionTier.COMPILED]
    for tier in ExecutionTier:
        assert snapshots[tier] == reference, tier
        assert points[tier] == points[ExecutionTier.COMPILED], tier


def test_pmds_share_the_drivers_tier():
    binary = _build(tier="codegen")
    for pmd in binary.pmds.values():
        assert pmd.tier is ExecutionTier.CODEGEN
        assert pmd._rx_fn is not None and pmd._tx_fn is not None


# -- fallback under fault schedules -------------------------------------------


def test_codegen_falls_back_under_a_fault_schedule():
    faults = FaultSchedule(
        [FaultSpec(MBUF_EXHAUSTION, start=15, stop=25)], seed=7)
    binary = _build(tier="codegen", faults=faults)
    assert binary.driver.tier is ExecutionTier.COMPILED
    assert binary.driver.tier_selection.demoted
    assert binary.driver.tier_selection.requested is ExecutionTier.CODEGEN
    assert codegen.stats()["fallbacks"] >= 1
    # The demoted run still completes on the compiled tier.
    measure_throughput(binary, batches=40, warmup_batches=10)


def test_compile_failure_demotes_the_whole_build(monkeypatch):
    def broken(program, verify=None):
        raise codegen.CodegenError("boom")

    monkeypatch.setattr(codegen, "compile_program", broken)
    binary = _build(tier="codegen")
    assert binary.driver.tier is ExecutionTier.COMPILED
    assert binary.driver.tier_selection.reason == "codegen compile failed"
    point = measure_throughput(binary, batches=40, warmup_batches=10)
    assert point.pps > 0


# -- counters and caching -----------------------------------------------------


def test_codegen_counters_visible_through_the_broker():
    binary = _build(tier="codegen")
    broker = HandlerBroker(binary.driver.graph)
    assert int(broker.read("exec.codegen.compiles")) > 0
    assert int(broker.read("exec.codegen.selfchecks")) > 0
    assert int(broker.read("exec.codegen.tier_codegen")) >= 1
    matches = broker.read_many("exec.codegen.*")
    assert "exec.codegen.compiles" in matches
    assert "exec.codegen.fallbacks" in matches


def test_codegen_artifacts_cached_per_build():
    binary = _build(tier="codegen")
    n_elements = len(binary.exec_programs)
    assert exec_cache.stats()["codegen_misses"] == 1
    compiles = codegen.stats()["compiles"]
    _build(tier="codegen")
    assert exec_cache.stats()["codegen_hits"] == 1
    # The second build reuses the cached element artifact map; only the
    # PMD's freshly lowered rx/tx conversion programs can compile again.
    assert codegen.stats()["compiles"] - compiles < n_elements


# -- RunProfile ---------------------------------------------------------------


def test_profile_and_kwargs_builds_agree():
    exec_cache.reset_caches()
    via_profile = _build(tier="codegen")
    exec_cache.reset_caches()
    via_kwargs = PacketMill(
        router(), BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3), tier="codegen",
    ).build()
    assert via_profile.driver.tier is via_kwargs.driver.tier
    a = measure_throughput(via_profile, batches=40, warmup_batches=10)
    b = measure_throughput(via_kwargs, batches=40, warmup_batches=10)
    assert a == b
