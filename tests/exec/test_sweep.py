"""Sweep engine: picklability, serial/parallel bit-identity, fallbacks."""

import pickle

import pytest

from repro.analyze.cli import shipped_configs, shipped_runtime_pairings
from repro.core.nfs import forwarder
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import BuildError
from repro.exec import cache as exec_cache
from repro.exec.sweep import (
    FrameworkPointSpec,
    PointSpec,
    SweepEngine,
    TraceKey,
    _group_key,
    default_jobs,
    run_points,
)
from repro.experiments import fig01, fig06, fig10, fig11
from repro.experiments.common import QUICK, Scale

#: Small but non-trivial scale for the determinism tests.
MICRO = Scale(
    name="micro",
    warmup_batches=20,
    batches=40,
    frequencies=(1.2, 3.0),
    packet_sizes=(64, 1472),
    latency_packets=5_000,
    footprints_mb=(1.0, 16.0),
    work_numbers=(0, 20),
)


@pytest.fixture(autouse=True)
def fresh_caches():
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def _spec(**kwargs):
    defaults = dict(config=forwarder(), options=BuildOptions.packetmill(),
                    freq_ghz=2.3, batches=40, warmup_batches=20)
    defaults.update(kwargs)
    return PointSpec(**defaults)


class TestPicklability:
    def test_point_spec_roundtrips(self):
        spec = _spec(config=forwarder(burst=64),
                     trace=TraceKey("fixed", 512, seed=9, per_port=False),
                     params_overrides=(("ddio_ways", 4),))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_executed_point_roundtrips(self):
        point = _spec().execute()
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.gbps == point.gbps

    def test_multicore_spec_roundtrips_and_runs(self):
        spec = _spec(n_cores=2)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute() == spec.execute()

    def test_telemetry_enabled_point_roundtrips(self):
        # The telemetry bundle drags the full hardware model (TLB LRU
        # sets included) across the process boundary; a pickling failure
        # here silently degrades the sweep engine to serial execution.
        from repro.core.packetmill import PacketMill
        from repro.perf.runner import measure_throughput

        mill = PacketMill(forwarder(), BuildOptions.packetmill(),
                          telemetry=True)
        point = measure_throughput(mill.build(), batches=40, warmup_batches=20)
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point


class TestEngine:
    def test_serial_and_forced_parallel_agree(self, monkeypatch):
        specs = [_spec(), _spec(options=BuildOptions.vanilla())]
        serial = SweepEngine(jobs=1).run(specs)
        exec_cache.reset_caches()
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.delenv("REPRO_SWEEP", raising=False)
        engine = SweepEngine()
        assert engine.parallel
        parallel = engine.run(specs)
        assert serial == parallel

    def test_point_cache_short_circuits_repeat_sweeps(self):
        specs = [_spec()]
        first = run_points(specs)
        second = run_points(specs)
        assert first == second
        stats = exec_cache.stats()
        assert stats["point_misses"] == 1
        assert stats["point_hits"] == 1

    def test_results_in_submission_order(self):
        specs = [_spec(freq_ghz=f) for f in (1.2, 2.0, 3.0)]
        points = run_points(specs)
        # Higher frequency -> strictly higher CPU service rate.
        assert points[0].cpu_pps < points[1].cpu_pps < points[2].cpu_pps

    def test_jobs_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert SweepEngine().jobs == 3
        monkeypatch.setenv("REPRO_SWEEP", "serial")
        assert SweepEngine(jobs=4).jobs == 1
        assert not SweepEngine().parallel


class TestShardedPoints:
    def test_skewed_trace_key_builds_and_runs(self):
        spec = _spec(trace=TraceKey("skewed", n_flows=5000, skew=1.2),
                     n_cores=2, batches=30, warmup_batches=10)
        blob = pickle.dumps(spec)
        point = pickle.loads(blob).execute()
        assert point.pps > 0
        assert point.cpu_pps > 0

    def test_rss_config_participates_in_spec_identity(self):
        from repro.net.rss import RssConfig

        a = _spec(n_cores=2, rss=RssConfig(backlog_cap=128))
        b = _spec(n_cores=2, rss=RssConfig(backlog_cap=256))
        assert a != b
        assert hash(a) != hash(b) or a != b

    def test_sharded_point_deterministic(self):
        spec = _spec(n_cores=2, batches=30, warmup_batches=10)
        first = spec.execute()
        second = spec.execute()
        assert first.pps == second.pps
        assert first.ns_per_packet == second.ns_per_packet


@pytest.mark.parametrize("mod", [fig01, fig06, fig10],
                         ids=["fig01", "fig06", "fig10"])
def test_experiment_serial_parallel_bit_identical(mod, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP", "serial")
    serial = mod.run(MICRO).to_json()
    exec_cache.reset_caches()
    monkeypatch.setenv("REPRO_SWEEP", "parallel")
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = mod.run(MICRO).to_json()
    assert serial == parallel


#: Every shipped configuration that runs on one core.
SINGLE_CORE_CONFIGS = sorted(
    name for name in shipped_configs()
    if name not in shipped_runtime_pairings()
    or shipped_runtime_pairings()[name].n_cores == 1
)

PRESETS = ("vanilla", "devirtualized", "constant", "static",
           "all_code_opts", "packetmill")


class TestFrequencyGroups:
    """A single-core frequency sweep builds and simulates each build once."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("name", SINGLE_CORE_CONFIGS)
    def test_derived_points_equal_executed_points(self, name, preset):
        options = getattr(BuildOptions, preset)()
        specs = [_spec(config=shipped_configs()[name], options=options,
                       freq_ghz=freq, batches=4, warmup_batches=2)
                 for freq in (1.2, 2.0, 3.0)]
        try:
            derived = run_points(specs, jobs=1)
        except BuildError as exc:
            pytest.skip("%s does not build under %s: %s" % (name, preset, exc))
        for spec, point in zip(specs[1:], derived[1:]):
            assert point == spec.execute()

    def test_one_build_per_option_and_serial_equals_parallel(self, monkeypatch):
        builds = []
        original = PacketMill.build

        def counting_build(mill):
            builds.append(mill.options)
            return original(mill)

        specs = [_spec(options=options, freq_ghz=freq)
                 for options in (BuildOptions.vanilla(),
                                 BuildOptions.packetmill())
                 for freq in (1.2, 2.0, 3.0)]
        monkeypatch.setattr(PacketMill, "build", counting_build)
        serial = run_points(specs, jobs=1)
        assert builds == [BuildOptions.vanilla(), BuildOptions.packetmill()]
        # Each member was stored under its own spec.
        assert run_points(specs, jobs=1) == serial
        assert exec_cache.stats()["point_hits"] == len(specs)
        monkeypatch.undo()
        exec_cache.reset_caches()
        assert run_points(specs, jobs=2) == serial

    def test_sharded_points_are_never_grouped(self, monkeypatch):
        calls = []
        original = PacketMill.build_sharded

        def counting_build_sharded(mill):
            calls.append(mill.params.freq_ghz)
            return original(mill)

        monkeypatch.setattr(PacketMill, "build_sharded", counting_build_sharded)
        specs = [_spec(n_cores=2, freq_ghz=freq, batches=10, warmup_batches=5)
                 for freq in (1.2, 3.0)]
        run_points(specs, jobs=1)
        assert calls == [1.2, 3.0]


class TestFrameworkGroups:
    """Framework labels that build the same forwarder share one run."""

    SHARED = ["BESS", "FastClick-Light (Overlaying)"]

    def test_fig11_specs_form_six_groups_per_size(self):
        specs = fig11.point_specs(QUICK)
        sizes = len(QUICK.packet_sizes)
        assert len(specs) == 7 * sizes
        groups = {}
        for spec in specs:
            groups.setdefault(_group_key(spec), []).append(spec.framework)
        assert len(groups) == 6 * sizes
        shared = [labels for labels in groups.values() if len(labels) > 1]
        assert shared == [self.SHARED] * sizes

    def test_a_shared_group_builds_once_and_each_label_gets_its_point(
            self, monkeypatch):
        builds = []
        original = PacketMill.build

        def counting_build(mill):
            builds.append(mill.options)
            return original(mill)

        specs = [FrameworkPointSpec(label, 64, 1.2, 4, 2, seed=3)
                 for label in self.SHARED]
        monkeypatch.setattr(PacketMill, "build", counting_build)
        points = run_points(specs, jobs=1)
        assert len(builds) == 1
        monkeypatch.undo()
        assert points[0] == points[1] == specs[1].execute()
