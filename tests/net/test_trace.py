"""Tests for trace generators and flow sets."""

import pickle
import random
import tracemalloc
from itertools import accumulate

import pytest

from repro.net.flows import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowSet, FlowSpec
from repro.net.addresses import IPv4Address
from repro.net.packet import ANNO_SEQUENCE
from repro.net.trace import (
    CampusTraceGenerator,
    FixedSizeTraceGenerator,
    TraceSpec,
    build_frame,
)


class TestBuildFrame:
    def _flow(self, proto=PROTO_TCP):
        return FlowSpec(
            src_ip=IPv4Address("10.0.0.1"),
            dst_ip=IPv4Address("192.168.0.1"),
            proto=proto,
            src_port=1000,
            dst_port=80,
        )

    @pytest.mark.parametrize("size", [64, 128, 576, 1024, 1514])
    def test_exact_length(self, size):
        assert len(build_frame(self._flow(), size)) == size

    @pytest.mark.parametrize("proto", [PROTO_TCP, PROTO_UDP, PROTO_ICMP])
    def test_all_protocols(self, proto):
        frame = build_frame(self._flow(proto), 128)
        assert frame[23] == proto  # IPv4 protocol field

    def test_ip_header_is_valid(self):
        from repro.net.protocols import Ipv4Header

        frame = bytearray(build_frame(self._flow(), 128))
        assert Ipv4Header(frame, 14).verify()

    def test_rejects_runt(self):
        with pytest.raises(ValueError):
            build_frame(self._flow(), 32)

    def test_ttl_parameter(self):
        frame = build_frame(self._flow(), 64, ttl=7)
        assert frame[22] == 7


class TestFlowSet:
    def test_deterministic_for_seed(self):
        a = FlowSet(64, random.Random(1))
        b = FlowSet(64, random.Random(1))
        assert list(a) == list(b)

    def test_count(self):
        assert len(FlowSet(17, random.Random(0))) == 17

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            FlowSet(0, random.Random(0))

    def test_zipf_concentration(self):
        """Top-10% flows should carry well over 10% of picks."""
        flows = FlowSet(100, random.Random(3))
        top = set(flows[i] for i in range(10))
        hits = sum(1 for _ in range(5000) if flows.pick() in top)
        assert hits > 1500

    def test_icmp_flows_have_no_ports(self):
        flows = FlowSet(
            200, random.Random(5), proto_mix=((PROTO_ICMP, 1.0),)
        )
        assert all(f.src_port == 0 and f.dst_port == 0 for f in flows)

    def test_reversed_flow(self):
        flow = FlowSet(1, random.Random(1))[0]
        rev = flow.reversed()
        assert rev.src_ip == flow.dst_ip
        assert rev.dst_port == flow.src_port
        assert rev.reversed() == flow

    def test_rss_hash_is_deterministic(self):
        flow = FlowSet(1, random.Random(2))[0]
        assert flow.rss_hash() == flow.rss_hash()

    def test_rss_hash_spreads(self):
        flows = FlowSet(256, random.Random(7))
        buckets = {f.rss_hash() % 4 for f in flows}
        assert buckets == {0, 1, 2, 3}


def _frozen_flowset_cdf(count, zipf_s):
    """``FlowSet``'s CDF as first written: an explicit running sum."""
    harmonics = [1.0 / ((rank + 1) ** zipf_s) for rank in range(count)]
    total = sum(harmonics)
    cdf = []
    acc = 0.0
    for h in harmonics:
        acc += h / total
        cdf.append(acc)
    return cdf


def _frozen_flowset_pick(cdf, u):
    """``FlowSet.pick``'s hand-written binary search, clamped to the end."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestFlowSetExactness:
    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    def test_cdf_matches_running_sum(self, count):
        flows = FlowSet(count, random.Random(3))
        assert flows._cdf == _frozen_flowset_cdf(count, 1.1)

    def test_picks_match_hand_written_search(self):
        cdf = _frozen_flowset_cdf(500, 1.1)
        flows = FlowSet(500, random.Random(5))
        shadow = random.Random()
        shadow.setstate(flows._rng.getstate())
        for _ in range(3000):
            expected = flows[_frozen_flowset_pick(cdf, shadow.random())]
            assert flows.pick() is expected

    def test_pick_clamps_to_last_flow(self):
        flows = FlowSet(4, random.Random(0))
        flows._rng = type("Top", (), {"random": lambda self: 2.0})()
        assert flows.pick() is flows[3]


class TestFixedSizeTrace:
    def test_all_frames_have_requested_size(self):
        gen = FixedSizeTraceGenerator(256, TraceSpec(pool_size=64))
        assert all(len(p) == 256 for p in gen.packets(100))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FixedSizeTraceGenerator(32)
        with pytest.raises(ValueError):
            FixedSizeTraceGenerator(9000)

    def test_sequence_annotation_increments(self):
        gen = FixedSizeTraceGenerator(64, TraceSpec(pool_size=8))
        seqs = [p.anno_u32(ANNO_SEQUENCE) for p in gen.packets(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_cbr_timestamps(self):
        gen = FixedSizeTraceGenerator(64, TraceSpec(pool_size=8))
        pkts = list(gen.packets(4, rate_pps=1e6))
        gaps = [pkts[i + 1].timestamp - pkts[i].timestamp for i in range(3)]
        assert all(abs(g - 1e-6) < 1e-12 for g in gaps)

    def test_pool_cycles(self):
        gen = FixedSizeTraceGenerator(64, TraceSpec(pool_size=4))
        frames = [p.data_bytes() for p in gen.packets(8)]
        assert frames[:4] == frames[4:]

    def test_deterministic_across_instances(self):
        spec = TraceSpec(seed=11, pool_size=16)
        a = [p.data_bytes() for p in FixedSizeTraceGenerator(128, spec).packets(16)]
        b = [p.data_bytes() for p in FixedSizeTraceGenerator(128, spec).packets(16)]
        assert a == b

    def test_rss_hash_attached(self):
        gen = FixedSizeTraceGenerator(64, TraceSpec(pool_size=32, n_flows=32))
        hashes = {p.rss_hash for p in gen.packets(32)}
        assert len(hashes) > 1


class TestCampusTrace:
    def test_mean_size_near_981(self):
        gen = CampusTraceGenerator(TraceSpec(pool_size=4096))
        mean = gen.mean_frame_length()
        assert 920 <= mean <= 1040, "campus trace mean %.1f drifted from 981" % mean

    def test_analytic_mean_near_981(self):
        assert 940 <= CampusTraceGenerator.expected_mean() <= 1020

    def test_sizes_are_bimodal(self):
        gen = CampusTraceGenerator(TraceSpec(pool_size=2048))
        sizes = [len(p) for p in gen.packets(2048)]
        small = sum(1 for s in sizes if s < 128)
        large = sum(1 for s in sizes if s >= 1400)
        assert small > 200
        assert large > 800

    def test_sizes_within_ethernet_limits(self):
        gen = CampusTraceGenerator(TraceSpec(pool_size=512))
        assert all(64 <= len(p) <= 1514 for p in gen.packets(512))

    def test_protocol_mix_mostly_tcp(self):
        gen = CampusTraceGenerator(TraceSpec(pool_size=1024))
        tcp = sum(1 for p in gen.packets(1024) if p.data_bytes()[23] == PROTO_TCP)
        assert tcp > 700


class TestSkewedTrace:
    def _gen(self, **kwargs):
        from repro.net.trace import SkewedTraceGenerator

        defaults = dict(n_flows=100_000, seed=9)
        defaults.update(kwargs)
        return SkewedTraceGenerator(**defaults)

    def test_flow_at_is_pure_in_seed_and_rank(self):
        a, b = self._gen(), self._gen()
        for rank in (0, 1, 57, 99_999):
            assert a.flow_at(rank) == b.flow_at(rank)
        assert self._gen(seed=10).flow_at(0) != a.flow_at(0)

    def test_million_flow_population_is_lazy(self):
        gen = self._gen(n_flows=1_000_000)
        assert len(gen.flows) == 1_000_000
        flow = gen.flows[123_456]
        assert flow == gen.flow_at(123_456)

    def test_uniform_spreads_flows(self):
        gen = self._gen(n_flows=1000)
        seen = {gen.next_packet().rss_hash for _ in range(2000)}
        assert len(seen) > 500

    def test_zipf_concentrates_on_elephants(self):
        gen = self._gen(n_flows=1000, zipf_s=1.6)
        from collections import Counter
        counts = Counter(gen.next_packet().rss_hash for _ in range(4000))
        top = counts.most_common(1)[0][1]
        assert top > 4000 * 0.25, "top flow only %d of 4000" % top

    def test_sequence_and_hash_annotations(self):
        gen = self._gen(n_flows=100)
        first = gen.next_packet()
        second = gen.next_packet()
        assert second.anno_u32(ANNO_SEQUENCE) == first.anno_u32(ANNO_SEQUENCE) + 1
        assert first.rss_hash is not None

    def test_destinations_stay_inside_192_168(self):
        gen = self._gen(n_flows=50_000)
        for rank in range(0, 50_000, 997):
            dst = gen.flow_at(rank).dst_ip.value
            assert (dst >> 16) == (192 << 8) | 168

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            self._gen(n_flows=0)
        with pytest.raises(ValueError):
            self._gen(zipf_s=-1.0)


class TestElephantShift:
    """Mid-run elephant-set rotation (shift_at / shift_offset)."""

    def _gen(self, **kwargs):
        from repro.net.trace import SkewedTraceGenerator

        defaults = dict(n_flows=1000, zipf_s=1.6, seed=9)
        defaults.update(kwargs)
        return SkewedTraceGenerator(**defaults)

    def test_stationary_by_default(self):
        gen = self._gen()
        assert gen.shift_at is None
        assert gen.shift_offset == 0

    def test_shift_rotates_the_hot_set(self):
        from collections import Counter

        gen = self._gen(shift_at=2000)
        before = Counter(gen.next_packet().rss_hash for _ in range(2000))
        after = Counter(gen.next_packet().rss_hash for _ in range(2000))
        top_before = before.most_common(1)[0][0]
        top_after = after.most_common(1)[0][0]
        # The elephant changes identity but not weight.
        assert top_before != top_after
        assert after[top_after] > 2000 * 0.25

    def test_shifted_stream_is_deterministic(self):
        a = self._gen(shift_at=500)
        b = self._gen(shift_at=500)
        for _ in range(1500):
            assert a.next_packet().rss_hash == b.next_packet().rss_hash

    def test_prefix_matches_stationary_stream(self):
        shifted = self._gen(shift_at=300)
        stationary = self._gen()
        for _ in range(300):
            assert shifted.next_packet().rss_hash == \
                stationary.next_packet().rss_hash
        # The first rotation diverges the streams.
        diverged = any(
            shifted.next_packet().rss_hash != stationary.next_packet().rss_hash
            for _ in range(300))
        assert diverged

    def test_default_offset_is_half_the_population(self):
        gen = self._gen(n_flows=1000, shift_at=100)
        assert gen.shift_offset == 500
        assert self._gen(shift_at=100, shift_offset=7).shift_offset == 7

    def test_rejects_bad_shift_args(self):
        import pytest

        with pytest.raises(ValueError):
            self._gen(shift_at=0)
        with pytest.raises(ValueError):
            self._gen(shift_offset=5)


def _frozen_zipf_cdf(n_flows, zipf_s):
    """The skewed generator's CDF as a list of floats (the original formula)."""
    weights = [(rank + 1) ** -zipf_s for rank in range(n_flows)]
    total = sum(weights)
    return list(accumulate(w / total for w in weights))


class TestSharedZipfCdf:
    """One immutable ``array('d')`` CDF per ``(n_flows, zipf_s)``."""

    @pytest.mark.parametrize("n_flows", [1, 2, 1000, 50_000])
    @pytest.mark.parametrize("zipf_s", [0.5, 1.1, 1.6])
    def test_bit_identical_to_list_formula(self, n_flows, zipf_s):
        from repro.net.trace import zipf_cdf

        cdf = zipf_cdf(n_flows, zipf_s)
        assert cdf.typecode == "d"
        assert cdf.tolist() == _frozen_zipf_cdf(n_flows, zipf_s)

    def test_generators_with_one_key_share_one_table(self):
        from repro.net.trace import SkewedTraceGenerator

        a = SkewedTraceGenerator(n_flows=5000, zipf_s=1.1, seed=1)
        b = SkewedTraceGenerator(n_flows=5000, zipf_s=1.1, seed=2)
        c = SkewedTraceGenerator(n_flows=5000, zipf_s=1.2, seed=1)
        assert a._cdf is b._cdf
        assert c._cdf is not a._cdf
        assert SkewedTraceGenerator(n_flows=5000, seed=1)._cdf is None

    def test_reset_caches_rebuilds_an_equal_table(self):
        from repro.exec.cache import reset_caches
        from repro.net.trace import zipf_cdf

        before = zipf_cdf(3000, 1.1)
        reset_caches()
        after = zipf_cdf(3000, 1.1)
        assert after is not before
        assert after == before

    def test_pickled_generator_emits_identical_packets(self):
        from repro.net.trace import SkewedTraceGenerator

        gen = SkewedTraceGenerator(n_flows=20_000, zipf_s=1.1, seed=4)
        for _ in range(10):
            gen.next_packet()
        clone = pickle.loads(pickle.dumps(gen))
        for _ in range(500):
            a, b = gen.next_packet(), clone.next_packet()
            assert a.data_bytes() == b.data_bytes()
            assert a.rss_hash == b.rss_hash
            assert a.anno_u32(ANNO_SEQUENCE) == b.anno_u32(ANNO_SEQUENCE)

    def test_cold_build_stays_compact(self):
        """8 bytes per rank: no per-element float objects, no weights list."""
        from repro.exec.cache import reset_caches
        from repro.net.trace import SkewedTraceGenerator

        reset_caches()
        tracemalloc.start()
        try:
            SkewedTraceGenerator(n_flows=200_000, zipf_s=1.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 1024 * 1024, "cold build peaked at %d bytes" % peak
