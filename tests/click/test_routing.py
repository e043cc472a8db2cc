"""Tests for the radix trie and the RadixIPLookup/IPRewriter elements."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click.config.ast import Declaration
from repro.click.element import ElementConfigError
from repro.click.elements.ip import CheckIPHeader
from repro.click.elements.nat import IPRewriter
from repro.click.elements.routing import RadixIPLookup, RadixTrie
from repro.core import nfs
from repro.net.addresses import IPv4Address
from repro.net.flows import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowSpec
from repro.net.packet import Packet
from repro.net.trace import build_frame

from tests.click import reference_trie


def make(cls, config):
    return cls("t", Declaration("t", cls.class_name, config))


def packet_to(dst, proto=PROTO_TCP, src="10.0.0.1", sport=1234, dport=80):
    flow = FlowSpec(IPv4Address(src), IPv4Address(dst), proto, sport, dport)
    pkt = Packet(build_frame(flow, 128))
    make(CheckIPHeader, "14").process(pkt)
    return pkt


class TestRadixTrie:
    def test_exact_match(self):
        trie = RadixTrie()
        trie.insert(IPv4Address("10.0.0.1"), 32, None, 3)
        assert trie.lookup(IPv4Address("10.0.0.1").value) == (None, 3)
        assert trie.lookup(IPv4Address("10.0.0.2").value) is None

    def test_prefix_match(self):
        trie = RadixTrie()
        trie.insert(IPv4Address("192.168.0.0"), 16, None, 1)
        assert trie.lookup(IPv4Address("192.168.44.5").value) == (None, 1)
        assert trie.lookup(IPv4Address("192.169.0.1").value) is None

    def test_longest_prefix_wins(self):
        trie = RadixTrie()
        trie.insert(IPv4Address("10.0.0.0"), 8, None, 1)
        trie.insert(IPv4Address("10.1.0.0"), 16, None, 2)
        trie.insert(IPv4Address("10.1.2.0"), 24, None, 3)
        assert trie.lookup(IPv4Address("10.9.9.9").value)[1] == 1
        assert trie.lookup(IPv4Address("10.1.9.9").value)[1] == 2
        assert trie.lookup(IPv4Address("10.1.2.9").value)[1] == 3

    def test_default_route(self):
        trie = RadixTrie()
        trie.insert(IPv4Address("0.0.0.0"), 0, IPv4Address("10.0.0.254"), 9)
        assert trie.lookup(IPv4Address("8.8.8.8").value) == (IPv4Address("10.0.0.254"), 9)

    def test_non_octet_prefix_lengths(self):
        trie = RadixTrie()
        trie.insert(IPv4Address("192.168.64.0"), 18, None, 2)
        assert trie.lookup(IPv4Address("192.168.100.1").value)[1] == 2
        assert trie.lookup(IPv4Address("192.168.1.1").value) is None

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            RadixTrie().insert(IPv4Address("1.2.3.4"), 40, None, 0)

    def test_footprint_grows_with_routes(self):
        trie = RadixTrie()
        empty = trie.footprint_bytes()
        for i in range(16):
            trie.insert(IPv4Address("10.%d.0.0" % i), 16, None, 0)
        assert trie.footprint_bytes() > empty

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                st.integers(min_value=8, max_value=32),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_matches_linear_scan_model(self, routes, probe):
        """LPM result always equals a brute-force longest-match scan."""
        trie = RadixTrie()
        table = []
        for addr, plen, port in routes:
            prefix = IPv4Address(addr)
            trie.insert(prefix, plen, None, port)
            table.append((prefix, plen, port))
        probe_ip = IPv4Address(probe)
        best = None
        best_len = -1
        for prefix, plen, port in table:
            if probe_ip.in_prefix(prefix, plen) and plen >= best_len:
                # Later duplicates of equal length overwrite, like insert().
                best, best_len = port, plen
        got = trie.lookup(probe_ip.value)
        if best is None:
            assert got is None
        else:
            assert got is not None and got[1] == best


ROUTE_SETS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
        st.one_of(st.none(), st.integers(min_value=0, max_value=(1 << 32) - 1)),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=12,
)


class TestLazyChildrenDifferential:
    """Child arrays allocated on first insert change no lookup and no model input."""

    @settings(max_examples=60, deadline=None)
    @given(ROUTE_SETS, st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                                min_size=1, max_size=16))
    def test_matches_eager_reference(self, routes, probes):
        trie, ref = RadixTrie(), reference_trie.RadixTrie()
        for addr, plen, gateway, port in routes:
            gw = None if gateway is None else IPv4Address(gateway)
            trie.insert(IPv4Address(addr), plen, gw, port)
            ref.insert(IPv4Address(addr), plen, gw, port)
        # Probe the routes' own prefixes too, so hits are common.
        for probe in probes + [addr for addr, _, _, _ in routes]:
            assert trie.lookup(probe) == ref.lookup(IPv4Address(probe))
        assert trie.n_nodes == ref.n_nodes
        assert trie.n_routes == ref.n_routes
        assert trie.footprint_bytes() == ref.footprint_bytes()
        assert trie.expected_depth() == ref.expected_depth()

    def test_nat_router_trie_leaves_hold_no_child_array(self):
        """The NAT router's five routes: 514 nodes, 512 of them leaves.

        With a 256-slot list per node the trie took about 1.1 MB; with
        lists only on the two inner nodes it takes about 36 KB.
        """
        config = ", ".join(nfs.ROUTES)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            element = make(RadixIPLookup, config)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert element.trie.n_nodes == 514
        assert grown < 128 * 1024


class TestRadixIPLookupElement:
    CONFIG = "192.168.0.0/18 0, 192.168.64.0/18 1, 0.0.0.0/0 2"

    def test_output_ports(self):
        element = make(RadixIPLookup, self.CONFIG)
        assert element.n_outputs == 3
        assert element.process(packet_to("192.168.1.1")) == 0
        assert element.process(packet_to("192.168.100.1")) == 1
        assert element.process(packet_to("8.8.8.8")) == 2

    def test_dst_ip_annotation_set(self):
        element = make(RadixIPLookup, self.CONFIG)
        pkt = packet_to("192.168.1.1")
        element.process(pkt)
        assert pkt.anno_u32(4) == IPv4Address("192.168.1.1").value

    def test_gateway_route_sets_gateway_annotation(self):
        element = make(RadixIPLookup, "0.0.0.0/0 10.0.0.254 0")
        pkt = packet_to("8.8.8.8")
        element.process(pkt)
        assert pkt.anno_u32(4) == IPv4Address("10.0.0.254").value

    def test_requires_routes(self):
        with pytest.raises(ElementConfigError):
            make(RadixIPLookup, "")


class TestIPRewriter:
    def test_rewrites_source(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        pkt = packet_to("192.168.0.1", sport=5555)
        assert nat.process(pkt) == 0
        assert pkt.ip().src == IPv4Address("10.99.0.1")
        assert pkt.ip().verify()
        assert pkt.tcp().src_port != 5555
        assert nat.new_flows == 1

    def test_same_flow_same_mapping(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        a = packet_to("192.168.0.1", sport=5555)
        b = packet_to("192.168.0.1", sport=5555)
        nat.process(a)
        nat.process(b)
        assert a.tcp().src_port == b.tcp().src_port
        assert nat.new_flows == 1

    def test_distinct_flows_distinct_ports(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        a = packet_to("192.168.0.1", sport=5555)
        b = packet_to("192.168.0.1", sport=6666)
        nat.process(a)
        nat.process(b)
        assert a.tcp().src_port != b.tcp().src_port
        assert nat.new_flows == 2

    def test_reverse_mapping_recorded(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        pkt = packet_to("192.168.0.1", sport=5555)
        nat.process(pkt)
        public_port = pkt.tcp().src_port
        reverse_key = (
            IPv4Address("192.168.0.1").value,
            IPv4Address("10.99.0.1").value,
            PROTO_TCP,
            80,
            public_port,
        )
        assert nat.table.lookup(reverse_key) == (IPv4Address("10.0.0.1").value, 5555)

    def test_udp_flow(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        pkt = packet_to("192.168.0.1", proto=PROTO_UDP)
        assert nat.process(pkt) == 0
        assert pkt.ip().src == IPv4Address("10.99.0.1")
        assert pkt.ip().verify()

    def test_icmp_passes_untranslated(self):
        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        pkt = packet_to("192.168.0.1", proto=PROTO_ICMP)
        assert nat.process(pkt) == 0
        assert pkt.ip().src == IPv4Address("10.0.0.1")

    def test_requires_public_ip(self):
        with pytest.raises(ElementConfigError):
            make(IPRewriter, "")

    def test_port_allocation_wraps(self):
        from repro.click.elements.nat import FIRST_NAT_PORT, LAST_NAT_PORT

        nat = make(IPRewriter, "SRCIP 10.99.0.1")
        nat._next_port = LAST_NAT_PORT
        assert nat._allocate_port() == LAST_NAT_PORT
        assert nat._allocate_port() == FIRST_NAT_PORT
