"""Receive-side scaling: the Microsoft Toeplitz hash and indirection table.

RSS is how a single physical port feeds N cores without reordering any
flow: the NIC hashes each frame's 5-tuple with the Toeplitz function,
indexes an indirection table with the low bits of the hash, and DMA's the
frame to the RX queue the table names.  Because the hash is a pure
function of the tuple, every packet of a flow lands on the same queue --
per-flow ordering is preserved while flows spread across cores.

This module reproduces the NIC-side pieces faithfully enough to study
sharding behaviour:

- :func:`toeplitz_hash` / :class:`ToeplitzKey` -- the real Microsoft
  Toeplitz over the RSS input (verified against the vectors published in
  the Windows NDIS RSS specification, see ``tests/net/test_rss.py``).
- :class:`IndirectionTable` -- the RETA: ``table[hash % size] -> queue``.
- :class:`RssConfig` -- hashable/picklable knob bundle (key, table size,
  mempool policy, per-queue backlog bound) carried by ``RunProfile`` and
  sweep ``PointSpec``s.
- :func:`parse_flow` -- extract the IPv4 5-tuple from raw frame bytes
  (the fallback when a packet arrives without a precomputed hash).

Layering: this module sits below ``repro.net.flows`` (which calls
:func:`toeplitz_v4` for ``FlowSpec.rss_hash``) and must not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.net.steering import SteeringPolicy

#: The 40-byte default secret key from the Microsoft RSS specification
#: (the same default DPDK, mlx5, and ixgbe ship).  40 bytes covers the
#: largest input (IPv6 with ports, 36 bytes) plus the 31-bit window tail.
MICROSOFT_RSS_KEY = bytes((
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
))

_MASK32 = 0xFFFFFFFF

# IPv4 protocol numbers that hash with ports (TCP/UDP per the spec; the
# hash falls back to the 8-byte IP-only input for everything else).
_PORTED_PROTOS = frozenset((6, 17))


class ToeplitzKey:
    """A Toeplitz secret key with per-byte lookup tables.

    The textbook definition XORs a sliding 32-bit window of the key for
    every *bit* set in the input.  Per-byte tables fold eight window
    lookups into one, making the per-packet cost eight table reads for a
    12-byte input instead of 96 bit tests.
    """

    __slots__ = ("key", "_tables")

    def __init__(self, key: bytes = MICROSOFT_RSS_KEY, max_input: int = 12):
        if len(key) < max_input + 4:
            raise ValueError(
                "RSS key must cover the input plus a 32-bit window "
                "(%d bytes given, %d needed)" % (len(key), max_input + 4))
        self.key = bytes(key)
        key_int = int.from_bytes(self.key, "big")
        key_bits = 8 * len(self.key)
        tables: List[Tuple[int, ...]] = []
        for byte_index in range(max_input):
            windows = [
                (key_int >> (key_bits - 32 - (8 * byte_index + bit))) & _MASK32
                for bit in range(8)
            ]
            row = []
            for value in range(256):
                acc = 0
                for bit in range(8):
                    if value & (0x80 >> bit):
                        acc ^= windows[bit]
                row.append(acc)
            tables.append(tuple(row))
        self._tables = tuple(tables)

    def hash_bytes(self, data: bytes) -> int:
        """Toeplitz hash of ``data`` (must fit the precomputed tables)."""
        if len(data) > len(self._tables):
            raise ValueError(
                "input of %d bytes exceeds the %d-byte tables"
                % (len(data), len(self._tables)))
        acc = 0
        tables = self._tables
        for index, byte in enumerate(data):
            acc ^= tables[index][byte]
        return acc

    def hash_v4(self, src_ip: int, dst_ip: int,
                src_port: Optional[int] = None,
                dst_port: Optional[int] = None) -> int:
        """Hash an IPv4 tuple: 12-byte input with ports, 8-byte without."""
        data = src_ip.to_bytes(4, "big") + dst_ip.to_bytes(4, "big")
        if src_port is not None and dst_port is not None:
            data += src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big")
        return self.hash_bytes(data)


@lru_cache(maxsize=4)
def _key_for(key: bytes) -> ToeplitzKey:
    return ToeplitzKey(key)


def toeplitz_hash(data: bytes, key: bytes = MICROSOFT_RSS_KEY) -> int:
    """One-shot Toeplitz hash of raw input bytes."""
    return _key_for(key).hash_bytes(data)


def toeplitz_v4(src_ip: int, dst_ip: int, proto: int,
                src_port: int, dst_port: int,
                key: bytes = MICROSOFT_RSS_KEY) -> int:
    """The hash a ported NIC computes for an IPv4 frame.

    TCP and UDP hash the full 12-byte (addresses + ports) input; other
    protocols (ICMP, fragments, ...) hash addresses only, exactly as the
    NDIS ``IPv4`` hash type prescribes.
    """
    if proto in _PORTED_PROTOS:
        return _key_for(key).hash_v4(src_ip, dst_ip, src_port, dst_port)
    return _key_for(key).hash_v4(src_ip, dst_ip)


class IndirectionTable:
    """The RSS redirection table (RETA): low hash bits -> RX queue id.

    The default 128-entry table matches ConnectX-class hardware; entries
    are initialized round-robin across queues, which is what drivers
    program for equal-weight sharding.  ``retarget`` rewrites entries
    (the knob dynamic rebalancers would turn).
    """

    __slots__ = ("entries", "n_queues")

    def __init__(self, n_queues: int, size: int = 128):
        if n_queues < 1:
            raise ValueError("need at least one queue")
        if size < n_queues:
            raise ValueError("table smaller than the queue count")
        self.n_queues = n_queues
        self.entries: List[int] = [i % n_queues for i in range(size)]

    def queue_for(self, rss_hash: int) -> int:
        return self.entries[rss_hash % len(self.entries)]

    def retarget(self, index: int, queue: int) -> None:
        if not 0 <= queue < self.n_queues:
            raise ValueError("queue %d out of range" % queue)
        self.entries[index % len(self.entries)] = queue

    def spread(self) -> List[int]:
        """Per-queue entry counts (the table's static weight per queue)."""
        counts = [0] * self.n_queues
        for q in self.entries:
            counts[q] += 1
        return counts


#: Mempool policies for the sharded NIC: ``partitioned`` gives every
#: queue's PMD its own mempool (DPDK's per-queue ``rte_pktmbuf_pool``
#: idiom, the default); ``shared`` binds all queues to one pool so
#: exhaustion couples the queues (the scenario PR 1's mempool faults and
#: PR 6's buffer carving care about).
MEMPOOL_PARTITIONED = "partitioned"
MEMPOOL_SHARED = "shared"


@dataclass(frozen=True)
class RssConfig:
    """Sharding knobs, picklable and hashable so sweeps can key on them.

    ``backlog_cap`` bounds the per-queue staging backlog between the
    shared arrival stream and each queue's descriptor ring -- the
    simulated analogue of the RX descriptor ring depth headroom.  When an
    elephant flow overloads one queue past the cap, further frames
    steered there are dropped and counted (``imissed`` on that queue,
    ``rss.qN.dropped`` in the port ledger), never silently lost.

    ``ingest_budget`` caps how many arrivals one queue poll may pull from
    the shared trace while hunting for a frame of its own (``None`` =
    auto, see :meth:`ingest_budget_for`).

    ``steering`` attaches an adaptive-steering control loop
    (:class:`~repro.net.steering.SteeringPolicy`): the sharded runtime
    then rebalances the indirection table from live queue occupancy,
    gated by the policy's migration cost model.  ``None`` (the default)
    keeps the PR 8 static-RETA behaviour bit-for-bit.
    """

    key: bytes = MICROSOFT_RSS_KEY
    table_size: int = 128
    mempool: str = MEMPOOL_PARTITIONED
    backlog_cap: int = 4096
    ingest_budget: Optional[int] = None
    steering: Optional[SteeringPolicy] = None

    def __post_init__(self):
        if len(self.key) < 16:
            raise ValueError("RSS key too short")
        if self.table_size < 1:
            raise ValueError("table_size must be >= 1")
        if self.mempool not in (MEMPOOL_PARTITIONED, MEMPOOL_SHARED):
            raise ValueError("mempool must be %r or %r"
                             % (MEMPOOL_PARTITIONED, MEMPOOL_SHARED))
        if self.backlog_cap < 1:
            raise ValueError("backlog_cap must be >= 1")
        if self.ingest_budget is not None and self.ingest_budget < 1:
            raise ValueError("ingest_budget must be >= 1 (or None)")
        if self.steering is not None and not isinstance(self.steering,
                                                        SteeringPolicy):
            raise ValueError("steering must be a SteeringPolicy (or None)")

    def ingest_budget_for(self, burst: int, n_queues: int) -> int:
        """``ingest_budget``, or the auto one: four ``burst``-packet polls
        per queue (at least 64), enough for moderate imbalance to keep
        every queue's bursts full."""
        return self.ingest_budget or max(64, 4 * burst * n_queues)


# -- frame parsing ----------------------------------------------------------

_ETHERTYPE_IP = 0x0800
_ETHERTYPE_VLAN = 0x8100


def parse_flow(frame, offset: int = 0) -> Optional[Tuple[int, int, int, int, int]]:
    """Extract ``(src_ip, dst_ip, proto, src_port, dst_port)`` from a frame.

    Understands plain Ethernet/IPv4 and one 802.1Q tag.  Returns ``None``
    for anything else (non-IP, truncated) -- such frames hash to 0 and
    land on queue 0, which is what hardware RSS does with frames its hash
    types do not cover.
    """
    view = memoryview(frame)[offset:]
    if len(view) < 34:
        return None
    ethertype = (view[12] << 8) | view[13]
    l3 = 14
    if ethertype == _ETHERTYPE_VLAN:
        if len(view) < 38:
            return None
        ethertype = (view[16] << 8) | view[17]
        l3 = 18
    if ethertype != _ETHERTYPE_IP:
        return None
    ihl = (view[l3] & 0x0F) * 4
    if ihl < 20 or len(view) < l3 + ihl:
        return None
    proto = view[l3 + 9]
    src_ip = int.from_bytes(view[l3 + 12:l3 + 16], "big")
    dst_ip = int.from_bytes(view[l3 + 16:l3 + 20], "big")
    src_port = dst_port = 0
    l4 = l3 + ihl
    if proto in _PORTED_PROTOS and len(view) >= l4 + 4:
        src_port = (view[l4] << 8) | view[l4 + 1]
        dst_port = (view[l4 + 2] << 8) | view[l4 + 3]
    return src_ip, dst_ip, proto, src_port, dst_port


def hash_frame(frame, key: bytes = MICROSOFT_RSS_KEY) -> int:
    """The RSS hash the NIC would compute for raw frame bytes."""
    tup = parse_flow(frame)
    if tup is None:
        return 0
    return toeplitz_v4(*tup, key=key)
