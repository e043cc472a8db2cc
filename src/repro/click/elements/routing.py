"""IPv4 longest-prefix-match routing via an 8-bit-stride radix trie.

This is the router configuration's lookup element.  The trie is a real
data structure (inserted from the configured routes, queried per packet);
its memory footprint feeds the cost model so bigger tables genuinely cost
more cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.click.element import Element, ElementConfigError, register
from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    FieldAccess,
    Program,
    RandomAccess,
)
from repro.net.addresses import IPv4Address

STRIDE = 8
FANOUT = 1 << STRIDE


class _TrieNode:
    __slots__ = ("children", "value", "value_len")

    def __init__(self):
        # Allocated on the first child insert: most nodes are leaves.
        self.children: Optional[List[Optional[_TrieNode]]] = None
        self.value: Optional[Tuple[Optional[IPv4Address], int]] = None
        self.value_len = -1

    def child_array(self) -> List[Optional["_TrieNode"]]:
        if self.children is None:
            self.children = [None] * FANOUT
        return self.children


class RadixTrie:
    """8-bit-stride LPM trie mapping prefixes to (gateway, port)."""

    NODE_BYTES = FANOUT * 8 + 16  # child pointer array + leaf payload

    def __init__(self):
        self.root = _TrieNode()
        self.n_nodes = 1
        self.n_routes = 0

    def insert(self, prefix: IPv4Address, prefix_len: int,
               gateway: Optional[IPv4Address], port: int) -> None:
        if not 0 <= prefix_len <= 32:
            raise ValueError("bad prefix length %d" % prefix_len)
        node = self.root
        depth = 0
        remaining = prefix_len
        value = (gateway, port)
        addr = prefix.value
        while remaining > STRIDE:
            byte = (addr >> (24 - depth * 8)) & 0xFF
            children = node.child_array()
            if children[byte] is None:
                children[byte] = _TrieNode()
                self.n_nodes += 1
            node = children[byte]
            depth += 1
            remaining -= STRIDE
        # Prefix expansion within the final stride.
        byte = (addr >> (24 - depth * 8)) & 0xFF if remaining else 0
        span = 1 << (STRIDE - remaining)
        base = byte & ~(span - 1) if remaining else 0
        children = node.child_array()
        for i in range(base, base + span if remaining else FANOUT):
            child = children[i]
            if child is None:
                child = _TrieNode()
                children[i] = child
                self.n_nodes += 1
            if prefix_len >= child.value_len:
                child.value = value
                child.value_len = prefix_len
        if prefix_len == 0:
            if prefix_len >= node.value_len:
                node.value = value
                node.value_len = prefix_len
        self.n_routes += 1

    def lookup(self, value: int) -> Optional[Tuple[Optional[IPv4Address], int]]:
        """Longest-prefix match of an int address; returns (gateway, port) or None."""
        node = self.root
        best = node.value
        for shift in (24, 16, 8, 0):
            children = node.children
            if children is None:
                break
            node = children[(value >> shift) & 0xFF]
            if node is None:
                break
            if node.value is not None:
                best = node.value
        return best

    def footprint_bytes(self) -> int:
        return self.n_nodes * self.NODE_BYTES

    def expected_depth(self) -> int:
        """Typical lookup depth (levels actually populated)."""
        depth = 0
        node = self.root
        # A child array exists only once a child was inserted into it.
        while depth < 4 and node.children is not None:
            node = next(c for c in node.children if c is not None)
            depth += 1
        return max(1, depth)


@register
class RadixIPLookup(Element):
    """LPM route lookup; route syntax: ``prefix/len [gateway] port``.

    The matched port selects the output; the gateway (or the destination
    itself for directly-connected routes) is stored in the packet's
    ``dst_ip_anno`` for the downstream ARP/encap stage -- exactly Click's
    annotation discipline (§2.2).
    """

    class_name = "RadixIPLookup"

    def configure(self, args, kwargs):
        if not args:
            raise ElementConfigError("RadixIPLookup needs at least one route")
        self.trie = RadixTrie()
        max_port = 0
        for arg in args:
            parts = arg.split()
            if len(parts) not in (2, 3):
                raise ElementConfigError("bad route %r" % arg)
            prefix_s, rest = parts[0], parts[1:]
            if "/" in prefix_s:
                base_s, len_s = prefix_s.split("/")
                prefix, prefix_len = IPv4Address(base_s), int(len_s)
            else:
                prefix, prefix_len = IPv4Address(prefix_s), 32
            gateway = IPv4Address(rest[0]) if len(rest) == 2 else None
            port = int(rest[-1])
            self.trie.insert(prefix, prefix_len, gateway, port)
            max_port = max(max_port, port)
        self.n_outputs = max_port + 1
        self.declare_param("n_routes", self.trie.n_routes, size=4)
        self.misses = 0

    def process(self, pkt):
        dst = pkt.ip().dst_value
        result = self.trie.lookup(dst)
        if result is None:
            self.misses += 1
            return None
        gateway, port = result
        pkt.set_anno_u32(4, dst if gateway is None else gateway.value)  # ANNO_DST_IP
        return port

    def ir_program(self) -> Program:
        depth = self.trie.expected_depth()
        return Program(
            self.name,
            [
                DataAccess(30, 4),  # destination IP
                RandomAccess(self.trie.footprint_bytes(), count=depth),
                Compute(8 + 6 * depth, note="trie-walk"),
                FieldAccess("Packet", "dst_ip_anno", write=True),
                BranchHint(0.03, note="route-dispatch"),
            ],
        )
