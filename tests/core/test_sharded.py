"""Tests for the RSS-sharded runtime: identity, conservation, scoping."""

import gc
import weakref

import pytest

from repro.core.nfs import nat_router
from repro.core.options import BuildOptions
from repro.core.packetmill import BuildError, PacketMill
from repro.core.sharded import ShardedRuntime
from repro.faults.audit import (
    ShardConservationError,
    assert_sharded_conserved,
    sharded_audit,
)
from repro.faults.schedule import RX_UNDERRUN, FaultSchedule, FaultSpec
from repro.hw.params import MachineParams
from repro.net.rss import MEMPOOL_SHARED, RssConfig
from repro.net.trace import FiniteTrace, SkewedTraceGenerator
from repro.perf.runner import measure_sharded, measure_throughput

CONFIG = """
input :: FromDPDKDevice(PORT 0, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> CheckIPHeader -> DecIPTTL -> output;
"""


def finite_trace_factory(n_packets=2000, zipf_s=None, n_flows=1000, seed=3):
    def factory(port, core):
        return FiniteTrace(
            SkewedTraceGenerator(n_flows=n_flows, zipf_s=zipf_s, seed=seed),
            n_packets)
    return factory


def endless_trace_factory(seed=3):
    return lambda port, core: SkewedTraceGenerator(n_flows=5000, seed=seed)


def build_sharded(n_cores=2, trace=None, **kwargs):
    mill = PacketMill(CONFIG, trace=trace or finite_trace_factory(),
                      n_cores=n_cores, **kwargs)
    return mill.build_sharded()


class TestSingleCoreIdentity:
    """An n_cores=1 sharded runtime is bit-identical to the plain path."""

    def test_stats_bit_identical(self):
        plain = PacketMill(CONFIG, trace=finite_trace_factory()).build()
        plain.warmup(10)
        plain_run = plain.run(40)

        runtime = build_sharded(n_cores=1)
        runtime.warmup(10)
        runtime.run_batches(40)
        sharded_run = runtime.runs()[0]

        assert plain_run.stats.rx_packets == sharded_run.stats.rx_packets
        assert plain_run.stats.tx_packets == sharded_run.stats.tx_packets
        assert plain_run.stats.tx_bytes == sharded_run.stats.tx_bytes
        assert plain_run.stats.drops == sharded_run.stats.drops
        assert plain_run.elapsed_ns == sharded_run.elapsed_ns
        assert plain_run.counters == sharded_run.counters

    def test_measured_point_bit_identical(self):
        plain = measure_throughput(
            PacketMill(CONFIG, trace=endless_trace_factory()).build(),
            batches=120, warmup_batches=60)
        sharded = measure_sharded(
            PacketMill(CONFIG, trace=endless_trace_factory(),
                       n_cores=1).build_sharded(),
            batches=120, warmup_batches=60)
        assert plain.pps == sharded.pps
        assert plain.gbps == sharded.gbps
        assert plain.ns_per_packet == sharded.ns_per_packet
        assert plain.bound_by == sharded.bound_by


class TestShardedBuild:
    """Per-core replicas: one shared memory system, distinct cores."""

    def test_replicas_share_memory(self):
        runtime = PacketMill(nat_router(), trace=finite_trace_factory(),
                             n_cores=2).build_sharded()
        assert len(runtime.replicas) == 2
        assert runtime.replicas[0].mem is runtime.replicas[1].mem

    def test_core_ids_count_from_zero(self):
        runtime = build_sharded(n_cores=3)
        assert [b.cpu.core_id for b in runtime.replicas] == [0, 1, 2]

    def test_partitioned_mempools_are_disjoint(self):
        runtime = build_sharded(n_cores=2)
        pool_a, pool_b = (b.model.mempool.region for b in runtime.replicas)
        assert pool_a.end <= pool_b.base or pool_b.end <= pool_a.base

    def test_dropped_runtime_is_freed_without_the_cycle_collector(self):
        # A port and the Nics bound to it must not form a reference cycle
        # that keeps the shared memory system alive until a full collection.
        gc.collect()
        gc.disable()
        try:
            runtime = build_sharded(n_cores=2)
            mem = weakref.ref(runtime.replicas[0].mem)
            del runtime
            assert mem() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_cores", [0, -1])
    def test_rejects_fewer_than_one_core(self, n_cores):
        with pytest.raises(BuildError):
            build_sharded(n_cores=n_cores)


class TestShardedExecution:
    def test_replicas_split_the_stream(self):
        runtime = build_sharded(n_cores=4)
        runtime.run_until_eof()
        per_core_rx = [b.driver.stats.rx_packets for b in runtime.replicas]
        assert sum(per_core_rx) == 2000
        # Uniform flows: every queue sees real traffic.
        assert all(rx > 0 for rx in per_core_rx)

    def test_deterministic_across_builds(self):
        a = build_sharded(n_cores=3)
        b = build_sharded(n_cores=3)
        a.run_until_eof()
        b.run_until_eof()
        for ra, rb in zip(a.replicas, b.replicas):
            assert ra.driver.stats.rx_packets == rb.driver.stats.rx_packets
            assert ra.cpu.elapsed_ns() == rb.cpu.elapsed_ns()

    def test_run_until_eof_cap_raises(self):
        runtime = build_sharded(n_cores=2, trace=endless_trace_factory())
        with pytest.raises(RuntimeError):
            runtime.run_until_eof(max_batches=8)

    def test_profile_builds_sharded_runtime(self):
        runtime = PacketMill(CONFIG, trace=finite_trace_factory(),
                             n_cores=2).build_sharded()
        assert isinstance(runtime, ShardedRuntime)
        assert runtime.n_cores == 2

    def test_shared_mempool_option(self):
        runtime = build_sharded(
            n_cores=2, rss=RssConfig(mempool=MEMPOOL_SHARED))
        models = {id(b.model) for b in runtime.replicas}
        assert len(models) == 1
        runtime.run_until_eof()
        assert_sharded_conserved(runtime)


class TestShardedConservation:
    def test_uniform_load_conserves_exactly(self):
        runtime = build_sharded(n_cores=4)
        runtime.run_until_eof()
        audit = assert_sharded_conserved(runtime)
        assert audit["offered"] == 2000
        assert audit["balance"] == 0
        assert audit["forwarded"] + audit["dropped"] + \
            audit["rx_errors"] + audit["in_flight"] == 2000

    def test_elephant_flow_drops_are_counted(self):
        runtime = build_sharded(
            n_cores=4,
            trace=finite_trace_factory(n_packets=30_000, zipf_s=1.6),
            rss=RssConfig(backlog_cap=256))
        runtime.run_until_eof()
        audit = assert_sharded_conserved(runtime)
        # The hot queue overflowed its backlog -- but every loss has a
        # counter and the global books still balance.
        assert sum(p["rss_dropped"] for p in audit["ports"].values()) > 0
        assert audit["balance"] == 0

    def test_audit_detects_cooked_books(self):
        runtime = build_sharded(n_cores=2)
        runtime.run_until_eof()
        runtime.replicas[0].driver.stats  # run is done and balanced
        # Cook one queue's steering ledger and the audit must object.
        runtime.ports[0].registry.counter("q0.steered").value += 5
        with pytest.raises(ShardConservationError):
            assert_sharded_conserved(runtime)


class TestPerQueueFaultScoping:
    def test_queue_scoped_fault_only_arms_its_replica(self):
        schedule = FaultSchedule(
            [FaultSpec(RX_UNDERRUN, start=0, stop=50, probability=0.9,
                       queue=1)],
            seed=7)
        runtime = build_sharded(n_cores=3, faults=schedule)
        assert runtime.replicas[0].injector is None
        assert runtime.replicas[1].injector is not None
        assert runtime.replicas[2].injector is None

    def test_unscoped_fault_arms_every_replica(self):
        schedule = FaultSchedule(
            [FaultSpec(RX_UNDERRUN, start=0, stop=50, probability=0.9)],
            seed=7)
        runtime = build_sharded(n_cores=2, faults=schedule)
        assert all(b.injector is not None for b in runtime.replicas)

    def test_faulted_shard_still_conserves(self):
        schedule = FaultSchedule(
            [FaultSpec(RX_UNDERRUN, start=0, stop=30, probability=0.8,
                       queue=0)],
            seed=11)
        runtime = build_sharded(n_cores=2, faults=schedule)
        runtime.run_until_eof()
        audit = sharded_audit(runtime)
        assert audit["errors"] == []
        assert audit["balance"] == 0


class TestMergedTelemetry:
    def test_aggregate_equals_sum_of_cores(self):
        runtime = build_sharded(n_cores=3)
        runtime.run_until_eof()
        merged = runtime.registry
        total = merged.get("driver.rx_packets")
        per_core = [merged.get("core%d.driver.rx_packets" % i)
                    for i in range(3)]
        assert total == sum(per_core)
        assert per_core == merged.per_core("driver.rx_packets")

    def test_rss_ledger_mounted(self):
        runtime = build_sharded(n_cores=2)
        runtime.run_until_eof()
        assert runtime.registry.get("rss.0.ingested") == 2000
        assert runtime.registry.get("rss.0.q0.steered") + \
            runtime.registry.get("rss.0.q1.steered") == 2000

    def test_describe_mentions_every_core(self):
        runtime = build_sharded(n_cores=2)
        text = runtime.describe()
        assert "core 0" in text and "core 1" in text and "port 0" in text


class TestShardedScaling:
    def test_pcie_bound_throughput_does_not_fall_with_cores(self):
        # The NAT example's setup: 3 and 4 cores are both PCIe-bound.
        # Core 0's frames are not the cluster's (at 4 cores about 1060 B
        # against 1022 B for all four), so the ceilings must use every
        # replica's frames.  Gbps is compared because a PCIe-bound packet
        # rate falls when the measured frames are larger.
        params = MachineParams(freq_ghz=2.3)
        points = []
        for cores in (3, 4):
            runtime = PacketMill(nat_router(), BuildOptions.packetmill(),
                                 params=params, n_cores=cores).build_sharded()
            point = measure_sharded(runtime, batches=80, warmup_batches=40)
            runs = runtime.runs()
            assert point.mean_frame_len == (
                sum(r.tx_bytes for r in runs) / sum(r.tx_packets for r in runs))
            assert point.bound_by == "pcie"
            points.append(point)
        assert points[1].gbps >= points[0].gbps


class TestSteeringIntegration:
    """The adaptive steering loop riding the sharded runtime."""

    def _skewed(self, steering=None, n_packets=8000, backlog_cap=64,
                n_cores=4):
        from repro.net.steering import SteeringPolicy  # noqa: F401

        return build_sharded(
            n_cores=n_cores,
            trace=finite_trace_factory(n_packets=n_packets, zipf_s=1.6,
                                       n_flows=5000, seed=11),
            rss=RssConfig(backlog_cap=backlog_cap, steering=steering))

    def test_steering_run_conserves_and_migrates(self):
        from repro.net.steering import SteeringPolicy

        runtime = self._skewed(SteeringPolicy())
        runtime.run_until_eof()
        assert_sharded_conserved(runtime)
        mq = runtime.ports[0]
        assert sum(mq.bucket_counts()) == mq.ingested
        assert runtime.registry.get("steering.port0.moves") > 0
        assert runtime.registry.get("rss.0.reta_moves") == \
            runtime.registry.get("steering.port0.moves")

    def test_steering_relieves_the_hot_queue(self):
        from repro.net.steering import SteeringPolicy

        def arrivals(runtime):
            mq = runtime.ports[0]
            return [mq.steered(q) + mq.dropped(q)
                    for q in range(runtime.n_cores)]

        static = self._skewed(None)
        static.run_until_eof()
        steered = self._skewed(SteeringPolicy())
        steered.run_until_eof()

        def imbalance(arr):
            return max(arr) / (sum(arr) / len(arr))

        assert imbalance(arrivals(steered)) < imbalance(arrivals(static))
        assert steered.ports[0].dropped() <= static.ports[0].dropped()

    def test_disabled_steering_is_bit_identical_to_pr8(self):
        baseline = self._skewed(None)
        baseline.run_until_eof()
        again = self._skewed(None)
        again.run_until_eof()
        assert baseline.merged_snapshot() == again.merged_snapshot()
        # No steering names, no bucket accounting, no dispatch ledger.
        names = list(baseline.registry.names())
        assert not any(n.startswith("steering.") for n in names)
        assert not any("bucket" in n for n in names)
        assert baseline.ports[0].bucket_counts() is None
        with pytest.raises(RuntimeError):
            baseline.rebalance()

    def test_single_core_steering_never_migrates(self):
        from repro.net.steering import SteeringPolicy

        runtime = self._skewed(SteeringPolicy(), n_cores=1)
        runtime.run_until_eof()
        assert_sharded_conserved(runtime)
        assert runtime.registry.get("steering.port0.moves") == 0
        assert runtime.ports[0].table.entries == \
            [0] * len(runtime.ports[0].table.entries)

    def test_forced_rebalance_updates_the_table(self):
        from repro.net.steering import SteeringPolicy

        # A huge trigger keeps the automatic loop idle, so any table
        # change comes from the forced pass alone.
        runtime = self._skewed(SteeringPolicy(trigger=1e9, settle=1.0))
        runtime.run_batches(64)
        before = list(runtime.ports[0].table.entries)
        moved = runtime.rebalance()
        after = runtime.ports[0].table.entries
        assert moved == sum(1 for b, a in zip(before, after) if b != a)
        runtime.run_until_eof()
        assert_sharded_conserved(runtime)

    def test_describe_mentions_steering(self):
        from repro.net.steering import SteeringPolicy

        runtime = self._skewed(SteeringPolicy())
        runtime.run_batches(32)
        assert "steering:" in runtime.describe()
        assert "steering:" not in self._skewed(None).describe()
