"""Functional tests for the element library."""

import pytest

from repro.click.element import ElementConfigError, ElementRegistry
from repro.click.config.ast import Declaration
from repro.click.elements import (
    ARPResponder,
    CheckIPHeader,
    Classifier,
    Counter,
    DecIPTTL,
    Discard,
    EtherMirror,
    EtherRewrite,
    IPClassifier,
    Paint,
    Strip,
    VLANDecap,
    VLANEncap,
    WorkPackage,
)
from repro.core import nfs
from repro.core.packetmill import PacketMill
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flows import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowSpec
from repro.net.packet import ANNO_PAINT, ANNO_VLAN_TCI, Packet
from repro.net.protocols import ETHERTYPE_VLAN, ArpHeader, EtherHeader
from repro.net.trace import build_frame


def make_element(cls, config=""):
    decl = Declaration("t", cls.class_name, config)
    return cls("t", decl)


def tcp_packet(frame_len=128, ttl=64, proto=PROTO_TCP):
    flow = FlowSpec(
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("192.168.0.1"),
        proto=proto,
        src_port=1234,
        dst_port=80,
    )
    return Packet(build_frame(flow, frame_len, ttl=ttl))


class TestRegistry:
    def test_known_classes_registered(self):
        known = ElementRegistry.known_classes()
        for name in ("EtherMirror", "CheckIPHeader", "RadixIPLookup", "IPRewriter",
                     "WorkPackage", "FromDPDKDevice", "ToDPDKDevice"):
            assert name in known

    def test_unknown_class(self):
        with pytest.raises(ElementConfigError):
            ElementRegistry.create(Declaration("x", "Teleporter"))


class TestConfigErrors:
    """A bad argument names its element, whichever parser rejects it."""

    @pytest.mark.parametrize("config, old, new, where", [
        (nfs.router(), "BURST 32);\n    output", "BURST 3Queue2);\n    output",
         "input :: FromDPDKDevice: invalid literal"),
        (nfs.router(), "192.168.0.0/18 0", "192.1;68.0.0/18 0",
         "rt :: RadixIPLookup: invalid IPv4 address"),
        (nfs.router(), "DST 02:00:00:00:00:03", "DST 02:00:0g:00:00:03",
         "EtherRewrite@1 :: EtherRewrite: invalid MAC address"),
        (nfs.nat_router(), "CAPACITY 16384", "CAPACITY 1000",
         "IPRewriter@1 :: IPRewriter: bucket count must be a power of two"),
    ], ids=["burst", "route", "mac", "cuckoo-size"])
    def test_bad_argument_is_an_element_config_error(self, config, old, new,
                                                     where):
        assert old in config
        with pytest.raises(ElementConfigError) as info:
            PacketMill(config.replace(old, new)).build()
        assert str(info.value).startswith(where)
        # Still a ValueError, for callers that catch the broad class.
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("element", ["FromDPDKDevice", "ToDPDKDevice"])
    @pytest.mark.parametrize("burst", [0, -3])
    def test_non_positive_burst_is_refused(self, element, burst):
        config = "FromDPDKDevice(PORT 0) -> ToDPDKDevice(PORT 0);".replace(
            "%s(PORT 0" % element, "%s(PORT 0, BURST %d" % (element, burst))
        with pytest.raises(ElementConfigError,
                           match="%s: BURST must be positive" % element):
            PacketMill(config).build()

    @pytest.mark.parametrize("element", ["FromDPDKDevice", "ToDPDKDevice"])
    def test_burst_above_256_is_refused(self, element):
        config = "FromDPDKDevice(PORT 0) -> ToDPDKDevice(PORT 0);".replace(
            "%s(PORT 0" % element, "%s(PORT 0, BURST 257" % element)
        with pytest.raises(ElementConfigError,
                           match="%s: BURST must be .* at most 256" % element):
            PacketMill(config).build()
        PacketMill(config.replace("257", "256")).build()


class TestEtherElements:
    def test_mirror_swaps(self):
        pkt = tcp_packet()
        src, dst = pkt.ether().src, pkt.ether().dst
        element = make_element(EtherMirror)
        assert element.process(pkt) == 0
        assert pkt.ether().src == dst
        assert pkt.ether().dst == src

    def test_rewrite(self):
        element = make_element(EtherRewrite, "SRC 02:aa:00:00:00:01, DST 02:bb:00:00:00:02")
        pkt = tcp_packet()
        element.process(pkt)
        assert pkt.ether().src == MacAddress("02:aa:00:00:00:01")
        assert pkt.ether().dst == MacAddress("02:bb:00:00:00:02")

    def test_rewrite_requires_macs(self):
        with pytest.raises(ElementConfigError):
            make_element(EtherRewrite)


class TestClassifier:
    def test_dispatch_by_ethertype(self):
        element = make_element(Classifier, "12/0800, 12/0806, -")
        assert element.n_outputs == 3
        assert element.process(tcp_packet()) == 0  # IPv4

    def test_default_pattern(self):
        element = make_element(Classifier, "12/9999, -")
        assert element.process(tcp_packet()) == 1

    def test_no_match_drops(self):
        element = make_element(Classifier, "12/9999")
        assert element.process(tcp_packet()) is None

    def test_multi_term_pattern(self):
        element = make_element(Classifier, "12/0800 23/06, -")
        assert element.process(tcp_packet()) == 0
        assert element.process(tcp_packet(proto=PROTO_UDP)) == 1

    def test_bad_pattern(self):
        with pytest.raises(ElementConfigError):
            make_element(Classifier, "nonsense")

    def test_needs_patterns(self):
        with pytest.raises(ElementConfigError):
            make_element(Classifier)


class TestIPClassifier:
    def _marked(self, proto):
        pkt = tcp_packet(proto=proto)
        make_element(CheckIPHeader, "14").process(pkt)
        return pkt

    def test_protocol_dispatch(self):
        element = make_element(IPClassifier, "tcp, udp, icmp, -")
        assert element.process(self._marked(PROTO_TCP)) == 0
        assert element.process(self._marked(PROTO_UDP)) == 1
        assert element.process(self._marked(PROTO_ICMP)) == 2

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ElementConfigError):
            make_element(IPClassifier, "sctp")


class TestCheckIPHeader:
    def test_valid_packet_passes_and_marks(self):
        element = make_element(CheckIPHeader, "14")
        pkt = tcp_packet()
        assert element.process(pkt) == 0
        assert pkt.network_header_offset == 14
        assert pkt.transport_header_offset == 34
        assert element.bad == 0

    def test_corrupt_checksum_goes_to_port1(self):
        element = make_element(CheckIPHeader, "14")
        pkt = tcp_packet()
        pkt.data()[24] ^= 0xFF  # corrupt the IP checksum
        assert element.process(pkt) == 1
        assert element.bad == 1

    def test_truncated_packet(self):
        element = make_element(CheckIPHeader, "14")
        pkt = Packet(b"\x00" * 20)
        assert element.process(pkt) == 1


class TestDecIPTTL:
    def _ip_marked(self, ttl):
        pkt = tcp_packet(ttl=ttl)
        make_element(CheckIPHeader, "14").process(pkt)
        return pkt

    def test_decrements_and_fixes_checksum(self):
        element = make_element(DecIPTTL)
        pkt = self._ip_marked(ttl=64)
        assert element.process(pkt) == 0
        assert pkt.ip().ttl == 63
        assert pkt.ip().verify()

    def test_expired_ttl(self):
        element = make_element(DecIPTTL)
        assert element.process(self._ip_marked(ttl=1)) == 1
        assert element.expired == 1


class TestVlan:
    def _marked(self):
        pkt = tcp_packet()
        make_element(CheckIPHeader, "14").process(pkt)
        return pkt

    def test_encap_inserts_tag(self):
        element = make_element(VLANEncap, "VLAN_TCI 100")
        pkt = self._marked()
        original_len = len(pkt)
        element.process(pkt)
        assert len(pkt) == original_len + 4
        assert pkt.ether().ethertype == ETHERTYPE_VLAN
        assert pkt.vlan().vlan_id == 100

    def test_encap_preserves_macs_and_payload(self):
        element = make_element(VLANEncap, "VLAN_TCI 7")
        pkt = self._marked()
        src, dst = pkt.ether().src, pkt.ether().dst
        ip_before = bytes(pkt.data()[14:34])
        element.process(pkt)
        assert pkt.ether().src == src and pkt.ether().dst == dst
        assert bytes(pkt.data()[18:38]) == ip_before

    def test_encap_from_annotation(self):
        element = make_element(VLANEncap, "VLAN_TCI 0")
        pkt = self._marked()
        pkt.set_anno_u16(ANNO_VLAN_TCI, 42)
        element.process(pkt)
        assert pkt.vlan().vlan_id == 42

    def test_decap_roundtrip(self):
        pkt = self._marked()
        original = pkt.data_bytes()
        make_element(VLANEncap, "VLAN_TCI 9").process(pkt)
        decap = make_element(VLANDecap)
        decap.process(pkt)
        assert pkt.data_bytes() == original
        assert pkt.anno_u16(ANNO_VLAN_TCI) == 9

    def test_decap_ignores_untagged(self):
        pkt = self._marked()
        original = pkt.data_bytes()
        make_element(VLANDecap).process(pkt)
        assert pkt.data_bytes() == original


class TestMiscElements:
    def test_discard(self):
        element = make_element(Discard)
        assert element.process(tcp_packet()) is None
        assert element.discarded == 1

    def test_paint(self):
        element = make_element(Paint, "5")
        pkt = tcp_packet()
        element.process(pkt)
        assert pkt.anno_u8(ANNO_PAINT) == 5

    def test_counter(self):
        element = make_element(Counter)
        element.process(tcp_packet(128))
        element.process(tcp_packet(256))
        assert element.packets == 2
        assert element.bytes == 384

    def test_strip(self):
        element = make_element(Strip, "14")
        pkt = tcp_packet()
        ip_first = pkt.data_bytes()[14]
        element.process(pkt)
        assert pkt.data_bytes()[0] == ip_first

    def test_workpackage_prng_runs(self):
        element = make_element(WorkPackage, "S 1, N 2, W 4")
        element.process(tcp_packet())
        assert element.processed == 1
        assert element.footprint_bytes == 1024 * 1024

    def test_workpackage_prng_state_after_n_packets(self):
        """N packets step the PRNG N * W times, as the xorshift64 below
        (the element's state update, one step per call) would."""
        def xorshift(x):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
            return x

        element = make_element(WorkPackage, "S 1, N 2, W 7")
        expected = element._prng_state
        for _ in range(5):
            element.process(tcp_packet())
        for _ in range(5 * 7):
            expected = xorshift(expected)
        assert element._prng_state == expected
        assert element.processed == 5

    def test_workpackage_program_reflects_params(self):
        element = make_element(WorkPackage, "S 2, N 3, W 5")
        program = element.ir_program()
        from repro.compiler.ir import RandomAccess

        random_ops = [op for op in program.ops if isinstance(op, RandomAccess)]
        assert random_ops[0].count == 3
        assert random_ops[0].footprint == 2 * 1024 * 1024


class TestARPResponder:
    def _request(self):
        ether = EtherHeader.build(
            MacAddress.broadcast(), MacAddress("02:00:00:00:00:01"), 0x0806
        )
        arp = ArpHeader.build(
            ArpHeader.OP_REQUEST,
            MacAddress("02:00:00:00:00:01"),
            IPv4Address("10.0.0.9"),
            MacAddress.zero(),
            IPv4Address("192.168.1.1"),
        )
        pkt = Packet(ether + arp + bytes(18))
        pkt.mac_header_offset = 0
        return pkt

    def test_replies_to_request(self):
        element = make_element(ARPResponder, "192.168.1.1 02:00:00:00:00:02")
        pkt = self._request()
        assert element.process(pkt) == 0
        arp = pkt.arp()
        assert arp.op == ArpHeader.OP_REPLY
        assert arp.sender_mac == MacAddress("02:00:00:00:00:02")
        assert arp.target_ip == IPv4Address("10.0.0.9")
        assert pkt.ether().dst == MacAddress("02:00:00:00:00:01")

    def test_ignores_other_targets(self):
        element = make_element(ARPResponder, "192.168.9.9 02:00:00:00:00:02")
        assert element.process(self._request()) is None
