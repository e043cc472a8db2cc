"""Tests for the Toeplitz RSS hash, indirection table, and flow parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.rss import (
    MICROSOFT_RSS_KEY,
    IndirectionTable,
    RssConfig,
    ToeplitzKey,
    hash_frame,
    parse_flow,
    toeplitz_hash,
    toeplitz_v4,
)


def ip(dotted: str) -> int:
    a, b, c, d = (int(x) for x in dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


#: The IPv4 verification suite from the Microsoft NDIS RSS specification:
#: (dst_ip:dst_port, src_ip:src_port) -> (hash with ports, IP-only hash).
NDIS_VECTORS = [
    (("161.142.100.80", 1766), ("66.9.149.187", 2794),
     0x51CCC178, 0x323E8FC2),
    (("65.69.140.83", 4739), ("199.92.111.2", 14230),
     0xC626B0EA, 0xD718262A),
    (("12.22.207.184", 38024), ("24.19.198.95", 12898),
     0x5C2B394A, 0xD2D0A5DE),
    (("209.142.163.6", 2217), ("38.27.205.30", 48228),
     0xAFC7327F, 0x82989176),
    (("202.188.127.2", 1303), ("153.39.163.191", 44251),
     0x10E828A2, 0x5D1809C5),
]


class TestMicrosoftVectors:
    @pytest.mark.parametrize("dst,src,with_ports,ip_only", NDIS_VECTORS)
    def test_tcp_hash_matches_spec(self, dst, src, with_ports, ip_only):
        (dst_ip, dst_port), (src_ip, src_port) = dst, src
        assert toeplitz_v4(ip(src_ip), ip(dst_ip), 6,
                           src_port, dst_port) == with_ports

    @pytest.mark.parametrize("dst,src,with_ports,ip_only", NDIS_VECTORS)
    def test_ip_only_hash_matches_spec(self, dst, src, with_ports, ip_only):
        (dst_ip, _), (src_ip, _) = dst, src
        # A non-TCP/UDP protocol falls back to the 8-byte input.
        assert toeplitz_v4(ip(src_ip), ip(dst_ip), 1, 0, 0) == ip_only

    def test_udp_hashes_with_ports_like_tcp(self):
        (dst_ip, dst_port), (src_ip, src_port) = NDIS_VECTORS[0][:2]
        assert toeplitz_v4(ip(src_ip), ip(dst_ip), 17, src_port, dst_port) \
            == NDIS_VECTORS[0][2]


class TestToeplitzProperties:
    def test_byte_tables_match_bitwise_definition(self):
        # Reference implementation: XOR the sliding 32-bit key window for
        # every set bit of the input.
        data = bytes(range(1, 13))
        key_int = int.from_bytes(MICROSOFT_RSS_KEY, "big")
        key_bits = 8 * len(MICROSOFT_RSS_KEY)
        expected = 0
        for bit_index in range(8 * len(data)):
            if data[bit_index // 8] & (0x80 >> (bit_index % 8)):
                expected ^= (key_int >> (key_bits - 32 - bit_index)) & 0xFFFFFFFF
        assert toeplitz_hash(data) == expected

    @settings(max_examples=50, deadline=None)
    @given(src=st.integers(0, 2**32 - 1), dst=st.integers(0, 2**32 - 1),
           sport=st.integers(0, 65535), dport=st.integers(0, 65535))
    def test_deterministic(self, src, dst, sport, dport):
        a = toeplitz_v4(src, dst, 6, sport, dport)
        assert a == toeplitz_v4(src, dst, 6, sport, dport)
        assert 0 <= a <= 0xFFFFFFFF

    @settings(max_examples=30, deadline=None)
    @given(src=st.integers(0, 2**32 - 1), dst=st.integers(0, 2**32 - 1),
           sport=st.integers(0, 65535), dport=st.integers(0, 65535))
    def test_direction_sensitive_input(self, src, dst, sport, dport):
        # The hash is a pure function of the concatenated input bytes, so
        # any tuple change that changes the bytes may change the hash; at
        # minimum the ported and IP-only inputs must be independent
        # functions (ICMP ignores ports entirely).
        assert toeplitz_v4(src, dst, 1, sport, dport) == \
            toeplitz_v4(src, dst, 1, 0, 0)

    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            ToeplitzKey(b"short", max_input=12)

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            ToeplitzKey(MICROSOFT_RSS_KEY, max_input=8).hash_bytes(bytes(12))


class TestDistribution:
    def test_spreads_across_queues(self):
        """Chi-square-ish bound: uniform flows land near 1/N per queue."""
        n_queues = 4
        table = IndirectionTable(n_queues)
        hashes = [
            toeplitz_v4(ip("10.0.0.1") + i, ip("192.168.0.1") + (i * 7) % 251,
                        6, 1024 + i % 5000, 80)
            for i in range(8000)
        ]
        counts = [0] * n_queues
        for h in hashes:
            counts[table.queue_for(h)] += 1
        fair = 8000 / n_queues
        for queue, count in enumerate(counts):
            assert abs(count - fair) / fair < 0.10, \
                "queue %d got %d of %d" % (queue, count, 8000)

    def test_flow_affinity(self):
        """Every packet of one flow lands on the same queue."""
        table = IndirectionTable(8)
        h = toeplitz_v4(ip("10.1.2.3"), ip("192.168.9.9"), 6, 5555, 80)
        assert len({table.queue_for(h) for _ in range(100)}) == 1


class TestIndirectionTable:
    def test_round_robin_init(self):
        table = IndirectionTable(4, size=8)
        assert table.entries == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_retarget(self):
        table = IndirectionTable(4, size=8)
        table.retarget(0, 3)
        assert table.entries[0] == 3
        with pytest.raises(ValueError):
            table.retarget(0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndirectionTable(0)
        with pytest.raises(ValueError):
            IndirectionTable(8, size=4)


#: (queue count, table size) pairs with size >= n_queues, as the table
#: requires; sizes stay small so shrinking is fast.
_tables = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n, 64)))


def _retargets(n_queues, size):
    return st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, n_queues - 1)),
        max_size=32)


class TestRetargetProperties:
    """Invariants of the RETA under arbitrary retarget sequences."""

    @settings(max_examples=60, deadline=None)
    @given(shape=_tables, data=st.data())
    def test_retarget_preserves_size_and_queue_range(self, shape, data):
        n_queues, size = shape
        table = IndirectionTable(n_queues, size=size)
        for index, queue in data.draw(_retargets(n_queues, size)):
            table.retarget(index, queue)
        assert len(table.entries) == size
        assert all(0 <= q < n_queues for q in table.entries)
        assert sum(table.spread()) == size

    @settings(max_examples=60, deadline=None)
    @given(shape=_tables, data=st.data(),
           hashes=st.lists(st.integers(0, 2**32 - 1), max_size=64))
    def test_histogram_sums_to_input_length(self, shape, data, hashes):
        n_queues, size = shape
        table = IndirectionTable(n_queues, size=size)
        for index, queue in data.draw(_retargets(n_queues, size)):
            table.retarget(index, queue)
        counts = [0] * n_queues
        for h in hashes:
            counts[table.queue_for(h)] += 1
        assert sum(counts) == len(hashes)

    @settings(max_examples=60, deadline=None)
    @given(shape=_tables, data=st.data(),
           rss_hash=st.integers(0, 2**32 - 1))
    def test_queue_for_consistent_after_retargets(self, shape, data,
                                                  rss_hash):
        n_queues, size = shape
        table = IndirectionTable(n_queues, size=size)
        for index, queue in data.draw(_retargets(n_queues, size)):
            table.retarget(index, queue)
        queue = table.queue_for(rss_hash)
        # queue_for is the entry the hash indexes, and is stable.
        assert queue == table.entries[rss_hash % size]
        assert queue == table.queue_for(rss_hash)


class TestRssConfig:
    def test_defaults_are_valid_and_hashable(self):
        config = RssConfig()
        assert hash(config) == hash(RssConfig())
        assert config.key == MICROSOFT_RSS_KEY

    @pytest.mark.parametrize("kwargs", [
        {"key": b"tiny"},
        {"table_size": 0},
        {"mempool": "bogus"},
        {"backlog_cap": 0},
        {"ingest_budget": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RssConfig(**kwargs)


class TestParseFlow:
    def _frame(self, proto=6, vlan=False):
        eth = bytes(12)
        ip_hdr = bytes([0x45, 0, 0, 40, 0, 0, 0, 0, 64, proto, 0, 0])
        ip_hdr += ip("10.0.0.1").to_bytes(4, "big")
        ip_hdr += ip("192.168.0.2").to_bytes(4, "big")
        l4 = (1234).to_bytes(2, "big") + (80).to_bytes(2, "big") + bytes(16)
        if vlan:
            return eth + b"\x81\x00\x00\x01\x08\x00" + ip_hdr + l4
        return eth + b"\x08\x00" + ip_hdr + l4

    def test_parses_tcp_tuple(self):
        tup = parse_flow(self._frame())
        assert tup == (ip("10.0.0.1"), ip("192.168.0.2"), 6, 1234, 80)

    def test_parses_vlan_tagged(self):
        assert parse_flow(self._frame(vlan=True)) == \
            (ip("10.0.0.1"), ip("192.168.0.2"), 6, 1234, 80)

    def test_icmp_has_no_ports(self):
        tup = parse_flow(self._frame(proto=1))
        assert tup == (ip("10.0.0.1"), ip("192.168.0.2"), 1, 0, 0)

    def test_non_ip_and_runt_frames(self):
        assert parse_flow(bytes(12) + b"\x86\xdd" + bytes(40)) is None
        assert parse_flow(bytes(10)) is None
        assert hash_frame(bytes(10)) == 0

    def test_hash_frame_matches_tuple_hash(self):
        frame = self._frame()
        assert hash_frame(frame) == \
            toeplitz_v4(ip("10.0.0.1"), ip("192.168.0.2"), 6, 1234, 80)
