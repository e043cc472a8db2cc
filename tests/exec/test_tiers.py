"""The one execution path: a profile build and a keyword build run alike."""

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import RunProfile
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput


def test_profile_and_kwargs_builds_agree():
    options = BuildOptions.packetmill()
    params = MachineParams().at_frequency(2.3)
    exec_cache.reset_caches()
    via_profile = PacketMill.from_profile(
        router(burst=16), RunProfile(options=options, params=params)).build()
    exec_cache.reset_caches()
    via_kwargs = PacketMill(router(burst=16), options, params=params).build()
    assert type(via_profile.driver) is type(via_kwargs.driver)
    assert via_profile.options == via_kwargs.options
    assert sorted(via_profile.exec_programs) == sorted(via_kwargs.exec_programs)
    a = measure_throughput(via_profile, batches=40, warmup_batches=10)
    b = measure_throughput(via_kwargs, batches=40, warmup_batches=10)
    assert a == b
    exec_cache.reset_caches()
