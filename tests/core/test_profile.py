"""RunProfile: the consolidated config object behind PacketMill kwargs."""

from repro.compiler.runtime import ExecutionTier
from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import RunProfile
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput


def test_defaults_match_packetmill_defaults():
    profile = RunProfile()
    via_profile = PacketMill.from_profile(router(), profile)
    via_kwargs = PacketMill(router())
    assert via_profile.options == via_kwargs.options
    assert via_profile.params == via_kwargs.params
    assert via_profile.burst == via_kwargs.burst
    assert via_profile.tier is via_kwargs.tier is None


def test_kwargs_shim_builds_the_same_profile():
    options = BuildOptions.packetmill()
    params = MachineParams().at_frequency(2.3)
    mill = PacketMill(router(), options, params=params, seed=3, burst=16,
                      tier="codegen")
    assert mill.profile == RunProfile(options=options, params=params,
                                      seed=3, burst=16, tier="codegen")


def test_from_profile_measures_identically_to_kwargs():
    options = BuildOptions.packetmill()
    params = MachineParams().at_frequency(2.3)
    exec_cache.reset_caches()
    a = measure_throughput(
        PacketMill.from_profile(
            router(), RunProfile(options=options, params=params)).build(),
        batches=40, warmup_batches=10)
    exec_cache.reset_caches()
    b = measure_throughput(
        PacketMill(router(), options, params=params).build(),
        batches=40, warmup_batches=10)
    assert a == b


def test_with_overrides_is_a_functional_update():
    base = RunProfile(options=BuildOptions.packetmill(), seed=1)
    swept = base.with_overrides(seed=2, tier="codegen")
    assert base.seed == 1 and base.tier is None
    assert swept.seed == 2 and swept.tier == "codegen"
    assert swept.options == base.options


def test_describe_lists_only_non_defaults():
    assert RunProfile().describe() == "(defaults)"
    text = RunProfile(seed=9, tier="codegen").describe()
    assert "seed=9" in text and "codegen" in text
    assert "burst" not in text


def test_tier_field_accepts_enum_and_policy():
    # The tier is a plain value: the enum or its spelling.
    for tier in (ExecutionTier.CODEGEN, "codegen", "CODEGEN"):
        mill = PacketMill.from_profile(router(), RunProfile(tier=tier))
        assert mill.tier is ExecutionTier.CODEGEN
