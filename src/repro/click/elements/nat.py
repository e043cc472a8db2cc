"""Stateful NAPT (the paper's NAT configuration, Appendix A.3).

``IPRewriter`` rewrites the source address (and port) of outgoing packets
to a configured public address, allocating a fresh public port per flow
and remembering forward and reverse mappings in a cuckoo hash table --
"the NAT configuration is stateful and it uses the DPDK Cuckoo hash
table, resulting in more lookups and higher memory usage".
"""

from __future__ import annotations

from repro.click.element import Element, ElementConfigError, register
from repro.click.elements.cuckoo import CuckooHashTable
from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    Program,
    RandomAccess,
)
from repro.net.addresses import IPv4Address
from repro.net.protocols import IP_PROTO_TCP, IP_PROTO_UDP

FIRST_NAT_PORT = 10000
LAST_NAT_PORT = 60000


@register
class IPRewriter(Element):
    """Source NAPT toward a configured public IP."""

    class_name = "IPRewriter"

    def configure(self, args, kwargs):
        public = kwargs.get("SRCIP", args[0] if args else None)
        if public is None:
            raise ElementConfigError("IPRewriter needs the public SRCIP")
        self.declare_param("public_ip", IPv4Address(public), size=4)
        buckets = int(kwargs.get("CAPACITY", 16384))
        self.table = CuckooHashTable(n_buckets=buckets)
        self._next_port = FIRST_NAT_PORT
        self.new_flows = 0
        self.rewrites = 0

    def _allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port > LAST_NAT_PORT:
            self._next_port = FIRST_NAT_PORT
        return port

    def process(self, pkt):
        ip = pkt.ip()
        proto = ip.proto
        if proto not in (IP_PROTO_TCP, IP_PROTO_UDP):
            return 0  # pass non-TCP/UDP unchanged (no port to translate)
        l4 = pkt.tcp() if proto == IP_PROTO_TCP else pkt.udp()
        src = ip.src_value
        dst = ip.dst_value
        src_port = l4.src_port
        dst_port = l4.dst_port
        key = (src, dst, proto, src_port, dst_port)
        mapping = self.table.lookup(key)
        if mapping is None:
            public_port = self._allocate_port()
            mapping = (self.param("public_ip").value, public_port)
            self.table.insert(key, mapping)
            # Reverse mapping so return traffic can be translated back.
            reverse_key = (dst, mapping[0], proto, dst_port, public_port)
            self.table.insert(reverse_key, (src, src_port))
            self.new_flows += 1
        new_ip, new_port = mapping
        ip.src = new_ip  # incremental IP checksum fix inside
        # The L4 checksum covers the pseudo-header's source address too.
        l4.adjust_checksum_for_address((src >> 16, src & 0xFFFF), (new_ip >> 16, new_ip & 0xFFFF))
        l4.src_port = new_port  # incremental L4 checksum fix inside
        self.rewrites += 1
        return 0

    def ir_program(self) -> Program:
        # The stateful NAPT hot path is heavy: 5-tuple extraction and
        # hashing, a cuckoo lookup (two buckets, up to eight key
        # compares), conntrack bookkeeping/expiry, both header rewrites,
        # and the incremental IP+L4 checksum fixes -- "more lookups and
        # higher memory usage" (Appendix A.3).
        return Program(
            self.name,
            [
                DataAccess(23, 1),              # protocol
                DataAccess(26, 8),              # source/dest IPs
                DataAccess(34, 4, write=True),  # ports
                DataAccess(24, 2, write=True),  # IP checksum
                DataAccess(50, 2, write=True),  # L4 checksum
                RandomAccess(self.table.footprint_bytes(), count=2),  # 2 buckets
                # Entry + expiry stamp: the table mutation that makes the
                # NAT flow-keyed stateful (the sharding lints key on it).
                RandomAccess(self.table.footprint_bytes(), count=2, write=True),
                Compute(96, note="tuple-hash"),
                Compute(208, note="cuckoo-key-compares"),
                Compute(130, note="rewrite+checksum"),
                Compute(86, note="conntrack-bookkeeping"),
                BranchHint(0.06, note="new-flow"),
                BranchHint(0.08, note="bucket-probe"),
            ],
        )
