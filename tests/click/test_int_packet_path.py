"""The NAT router's int packet path against its frozen object-based copy.

The elements read and rewrite addresses, ports and checksums as ints;
``reference_packet_path`` keeps the code that built ``IPv4Address`` and
``MacAddress`` objects per packet.  Both must leave every byte, annotation,
return port, counter and flow-table entry the same.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.click.config.ast import Declaration
from repro.click.elements.ethernet import EtherRewrite
from repro.click.elements.ip import CheckIPHeader, DecIPTTL
from repro.click.elements.nat import IPRewriter
from repro.click.elements.routing import RadixIPLookup
from repro.net.addresses import IPv4Address
from repro.net.checksum import internet_checksum, ones_complement_sum, pseudo_header_sum
from repro.net.flows import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowSpec
from repro.net.packet import Packet
from repro.net.protocols import EtherHeader, Ipv4Header
from repro.net.trace import build_frame

from tests.click import reference_packet_path as ref
from tests.click.reference_trie import RadixTrie as ReferenceTrie

ADDRESSES = st.integers(min_value=0, max_value=(1 << 32) - 1)
PORTS = st.integers(min_value=0, max_value=0xFFFF)


def make(cls, config):
    return cls("t", Declaration("t", cls.class_name, config))


def dotted(value):
    return str(IPv4Address(value))


class Router:
    """One set of the NAT router's IP elements, as ``nfs.nat_router`` wires them."""

    def __init__(self, routes):
        config = ", ".join(
            "%s/%d %s%d" % (dotted(prefix), plen,
                            "" if gateway is None else dotted(gateway) + " ", port)
            for prefix, plen, gateway, port in routes)
        self.check = make(CheckIPHeader, "14")
        self.nat = make(IPRewriter, "SRCIP 10.99.0.1, CAPACITY 64")
        self.lookup = make(RadixIPLookup, config)
        self.dec = make(DecIPTTL, "")
        self.ether = make(EtherRewrite, "SRC 02:00:00:00:00:0a, DST 02:00:00:00:00:0b")

    def shipped(self, pkt):
        ports = [self.check.process(pkt)]
        if ports[-1] == 0:
            ports.append(self.nat.process(pkt))
            ports.append(self.lookup.process(pkt))
            if ports[-1] is not None:
                ports.append(self.dec.process(pkt))
                if ports[-1] == 0:
                    ports.append(self.ether.process(pkt))
        return ports

    def reference(self, pkt, trie):
        ports = [ref.check_ip_header(self.check, pkt)]
        if ports[-1] == 0:
            ports.append(ref.ip_rewriter(self.nat, pkt))
            ports.append(ref.radix_ip_lookup(self.lookup, trie, pkt))
            if ports[-1] is not None:
                ports.append(ref.dec_ip_ttl(self.dec, pkt))
                if ports[-1] == 0:
                    ports.append(ref.ether_rewrite(self.ether, pkt))
        return ports

    def state(self):
        return (self.check.checked, self.check.bad, self.nat.new_flows,
                self.nat.rewrites, self.nat._next_port, self.nat.table.entries,
                list(self.nat.table.items()), self.lookup.misses, self.dec.expired)


FLOWS = st.tuples(ADDRESSES, ADDRESSES, st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
                  PORTS, PORTS)
ROUTES = st.lists(
    st.tuples(ADDRESSES, st.integers(min_value=0, max_value=32),
              st.one_of(st.none(), ADDRESSES), st.integers(min_value=0, max_value=2)),
    min_size=1, max_size=6)
# (flow index, TTL, frame length, corruption): a corruption overwrites up
# to two IPv4 header bytes and either leaves the checksum stale or
# refreshes it.
CORRUPTIONS = st.tuples(
    st.lists(st.tuples(st.sampled_from([0, 2, 3, 8, 9, 10, 11]),
                       st.integers(min_value=0, max_value=0xFF)), max_size=2),
    st.booleans())
PACKETS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.sampled_from([1, 2, 255]),
              st.sampled_from([64, 96]), CORRUPTIONS),
    min_size=1, max_size=24)


def outcome(path, *args):
    """A path's return ports, or the error it raised (a long IHL can leave
    too few bytes for the L4 header view)."""
    try:
        return path(*args)
    except ValueError as err:
        return ("ValueError", str(err))


ONE_FLOW = [(0x0A000001, 0xC0A80101, PROTO_TCP, 1234, 80)]
DEFAULT_ROUTE = [(0, 0, None, 0)]


class TestIntPathDifferential:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(FLOWS, min_size=1, max_size=8), ROUTES, PACKETS)
    # Each structural check rejects a header whose checksum is fresh:
    # version 6, IHL 4, total length 5, and IHL 15 past a 64-byte frame.
    @example(ONE_FLOW, DEFAULT_ROUTE, [(0, 64, 96, ([(0, 0x65)], True))])
    @example(ONE_FLOW, DEFAULT_ROUTE, [(0, 64, 96, ([(0, 0x44)], True))])
    @example(ONE_FLOW, DEFAULT_ROUTE, [(0, 64, 96, ([(3, 5)], True))])
    @example(ONE_FLOW, DEFAULT_ROUTE, [(0, 64, 64, ([(0, 0x4F), (3, 0xFF)], True))])
    def test_same_bytes_annotations_ports_and_state(self, flows, routes, packets):
        """Same frames through both paths leave everything identical.

        Packets reuse a few flows, so established mappings are exercised.
        A corrupted header byte is left with a stale IP checksum or given a
        fresh one, so both the checksum and the structural checks reject
        frames (or let through odd TTLs and protocols) on both paths alike.
        """
        shipped, reference = Router(routes), Router(routes)
        trie = ReferenceTrie()
        for prefix, plen, gateway, port in routes:
            trie.insert(IPv4Address(prefix), plen,
                        None if gateway is None else IPv4Address(gateway), port)
        for index, ttl, frame_len, corruption in packets:
            src, dst, proto, sport, dport = flows[index % len(flows)]
            flow = FlowSpec(IPv4Address(src), IPv4Address(dst), proto, sport, dport)
            frame = bytearray(build_frame(flow, frame_len, ttl=ttl))
            overwrites, refresh = corruption
            for byte, value in overwrites:
                frame[EtherHeader.LENGTH + byte] = value
            if overwrites and refresh:
                Ipv4Header(frame, EtherHeader.LENGTH).recompute_checksum()
            a, b = Packet(bytes(frame)), Packet(bytes(frame))
            assert outcome(shipped.shipped, a) == outcome(reference.reference, b, trie)
            assert a.buffer == b.buffer
            assert a.anno == b.anno
            assert (a.network_header_offset, a.transport_header_offset) == (
                b.network_header_offset, b.transport_header_offset)
            assert shipped.state() == reference.state()


def l4_sums_to_ones(pkt, proto):
    """Full pseudo-header recompute over the L4 segment: 0xFFFF when valid."""
    ip = pkt.ip()
    start = pkt.headroom + pkt.transport_header_offset
    segment = bytes(pkt.buffer[start : pkt.headroom + pkt.length])
    pseudo = pseudo_header_sum(IPv4Address(ip.src_value).packed,
                               IPv4Address(ip.dst_value).packed, proto, len(segment))
    return ones_complement_sum(segment, pseudo) == 0xFFFF


def checksummed_packet(proto, src, sport, payload):
    """A frame whose L4 checksum covers the pseudo-header and a payload."""
    flow = FlowSpec(IPv4Address(src), IPv4Address("192.168.7.9"), proto, sport, 53)
    pkt = Packet(build_frame(flow, 96))
    make(CheckIPHeader, "14").process(pkt)
    l4 = pkt.tcp() if proto == PROTO_TCP else pkt.udp()
    start = pkt.headroom + pkt.transport_header_offset + l4.LENGTH
    pkt.buffer[start : start + len(payload)] = payload
    l4.checksum = 0
    ip = pkt.ip()
    segment = bytes(pkt.buffer[start - l4.LENGTH : pkt.headroom + pkt.length])
    pseudo = pseudo_header_sum(ip.src.packed, ip.dst.packed, proto, len(segment))
    l4.checksum = internet_checksum(segment, pseudo) or 0xFFFF
    assert l4_sums_to_ones(pkt, proto)
    return pkt


class TestNatL4Checksum:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([PROTO_TCP, PROTO_UDP]), ADDRESSES, PORTS,
           st.binary(min_size=0, max_size=40))
    def test_checksum_verifies_after_nat(self, proto, src, sport, payload):
        pkt = checksummed_packet(proto, src, sport, payload)
        make(IPRewriter, "SRCIP 10.99.0.1").process(pkt)
        assert pkt.ip().src_value == IPv4Address("10.99.0.1").value
        assert pkt.ip().verify()
        assert l4_sums_to_ones(pkt, proto)

    def test_udp_without_checksum_stays_without(self):
        flow = FlowSpec(IPv4Address("10.0.0.1"), IPv4Address("192.168.7.9"),
                        PROTO_UDP, 4000, 53)
        pkt = Packet(build_frame(flow, 96))
        make(CheckIPHeader, "14").process(pkt)
        make(IPRewriter, "SRCIP 10.99.0.1").process(pkt)
        assert pkt.udp().checksum == 0

    def test_udp_computed_zero_is_sent_as_ones(self):
        """A fix that lands on 0 is written as 0xFFFF, never as "no checksum"."""
        pkt = checksummed_packet(PROTO_UDP, 0x0A000001, 4000, b"")
        udp = pkt.udp()
        # Find the old checksum whose fix for 10.0.0.1 -> 10.99.0.1 yields 0.
        for old in range(1, 0x10000):
            udp.checksum = old
            udp.adjust_checksum_for_address((0x0A00, 0x0001), (0x0A63, 0x0001))
            if udp.checksum == 0xFFFF:
                break
        else:
            pytest.fail("no old checksum maps to zero")
        assert udp.checksum != 0


class TestIntAddressAccessors:
    def header(self):
        raw = bytearray(Ipv4Header.build(IPv4Address("10.0.0.1"),
                                         IPv4Address("192.168.0.1"), 6, 20))
        return Ipv4Header(raw, 0)

    def test_values_match_objects(self):
        hdr = self.header()
        assert hdr.src_value == hdr.src.value == 0x0A000001
        assert hdr.dst_value == hdr.dst.value == 0xC0A80001

    @pytest.mark.parametrize("value", [0, 1, 0x0A630001, 0xFFFFFFFF])
    def test_int_setter_equals_object_setter(self, value):
        a, b = self.header(), self.header()
        a.src = value
        b.src = IPv4Address(value)
        a.dst = value
        b.dst = IPv4Address(value)
        assert a._buf == b._buf
        assert a.verify()

    def test_string_setter_still_parses(self):
        hdr = self.header()
        hdr.dst = "8.8.8.8"
        assert hdr.dst == IPv4Address("8.8.8.8")
        assert hdr.verify()

    @pytest.mark.parametrize("value", [-1, 1 << 32])
    def test_int_setter_range_error_is_ipv4address_error(self, value):
        with pytest.raises(ValueError) as expected:
            IPv4Address(value)
        for field in ("src", "dst"):
            hdr = self.header()
            before = bytes(hdr._buf)
            with pytest.raises(ValueError) as got:
                setattr(hdr, field, value)
            assert str(got.value) == str(expected.value)
            assert bytes(hdr._buf) == before

