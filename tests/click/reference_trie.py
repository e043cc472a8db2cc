"""A frozen copy of the radix trie that allocates a child array per node.

``test_routing.TestLazyChildrenDifferential`` builds this trie and
:class:`repro.click.elements.routing.RadixTrie` from the same routes and
requires identical lookups, ``n_nodes``, ``footprint_bytes()`` and
``expected_depth()``.  Do not edit it to follow later changes to the
shipped trie: it is the reference the lazily allocated child arrays are
held to.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.addresses import IPv4Address

STRIDE = 8
FANOUT = 1 << STRIDE


class _TrieNode:
    __slots__ = ("children", "value", "value_len")

    def __init__(self):
        self.children: List[Optional[_TrieNode]] = [None] * FANOUT
        self.value: Optional[Tuple[Optional[IPv4Address], int]] = None
        self.value_len = -1


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
            if node.children[byte] is None:
                node.children[byte] = _TrieNode()
                self.n_nodes += 1
            node = node.children[byte]
            depth += 1
            remaining -= STRIDE
        # Prefix expansion within the final stride.
        byte = (addr >> (24 - depth * 8)) & 0xFF if remaining else 0
        span = 1 << (STRIDE - remaining)
        base = byte & ~(span - 1) if remaining else 0
        for i in range(base, base + span if remaining else FANOUT):
            child = node.children[i]
            if child is None:
                child = _TrieNode()
                node.children[i] = child
                self.n_nodes += 1
            if prefix_len >= child.value_len:
                child.value = value
                child.value_len = prefix_len
        if prefix_len == 0:
            if prefix_len >= node.value_len:
                node.value = value
                node.value_len = prefix_len
        self.n_routes += 1

    def lookup(self, addr: IPv4Address) -> Optional[Tuple[Optional[IPv4Address], int]]:
        """Longest-prefix match; returns (gateway, port) or None."""
        node = self.root
        best = self.root.value
        value = addr.value
        for depth in range(4):
            byte = (value >> (24 - depth * 8)) & 0xFF
            node = node.children[byte]
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
        while depth < 4 and any(c is not None for c in node.children):
            node = next(c for c in node.children if c is not None)
            depth += 1
        return max(1, depth)
