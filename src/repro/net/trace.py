"""Traffic trace generators.

The paper evaluates with (i) a 28-minute campus trace (799 M packets,
average size 981 B) that GDPR prevents publishing, and (ii) synthetic
fixed-size traces.  :class:`CampusTraceGenerator` is the substitution for
the former: it reproduces the published mean packet size with a realistic
bimodal size distribution (ACK-sized minima and MTU-sized maxima) and a
heavy-tailed flow population, which is what the metadata-locality results
depend on.  :class:`FixedSizeTraceGenerator` reproduces the latter exactly.

Generators pre-build a pool of distinct frames and cycle through it --
the same strategy the paper uses when replaying the first two million
trace packets 25 times.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from operator import truediv
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flows import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowSet, FlowSpec
from repro.net.packet import ANNO_SEQUENCE, Packet
from repro.net.protocols import (
    ETHERTYPE_IP,
    EtherHeader,
    IcmpHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)

MIN_FRAME = 64
MAX_FRAME = 1514

GENERATOR_MAC = MacAddress("02:00:00:00:00:01")
DUT_MAC = MacAddress("02:00:00:00:00:02")


@lru_cache(maxsize=16384)
def build_frame(flow: FlowSpec, frame_len: int, ttl: int = 64,
                src_mac: MacAddress = GENERATOR_MAC,
                dst_mac: MacAddress = DUT_MAC) -> bytes:
    """Serialize a full Ethernet/IPv4/L4 frame of exactly ``frame_len`` bytes.

    Pure in its (hashable) arguments and memoized: trace pools draw the
    same flow/size combinations repeatedly, and the returned ``bytes`` is
    immutable so sharing one object across pools is safe.
    """
    if frame_len < MIN_FRAME:
        raise ValueError("frame must be at least %d bytes" % MIN_FRAME)
    ether = EtherHeader.build(dst_mac, src_mac, ETHERTYPE_IP)
    ip_payload_len = frame_len - EtherHeader.LENGTH - Ipv4Header.LENGTH
    if flow.proto == PROTO_TCP:
        l4 = TcpHeader.build(flow.src_port, flow.dst_port)
    elif flow.proto == PROTO_UDP:
        l4 = UdpHeader.build(flow.src_port, flow.dst_port, ip_payload_len - UdpHeader.LENGTH)
    elif flow.proto == PROTO_ICMP:
        l4 = IcmpHeader.build(IcmpHeader.ECHO_REQUEST, ident=flow.src_port or 1)
    else:
        raise ValueError("unsupported protocol %d" % flow.proto)
    if ip_payload_len < len(l4):
        raise ValueError("frame length %d too small for L4 header" % frame_len)
    ip = Ipv4Header.build(flow.src_ip, flow.dst_ip, flow.proto, ip_payload_len, ttl=ttl)
    padding = bytes(ip_payload_len - len(l4))
    return ether + ip + l4 + padding


@dataclass
class TraceSpec:
    """Parameters shared by all trace generators."""

    n_flows: int = 1024
    seed: int = 42
    pool_size: int = 2048
    dst_subnets: Sequence[str] = field(
        default_factory=lambda: ("192.168.0.0", "192.168.64.0", "192.168.128.0", "192.168.192.0")
    )


class _PooledTrace:
    """Base class: builds a frame pool once, then cycles it deterministically."""

    def __init__(self, spec: TraceSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._flows = FlowSet(spec.n_flows, self._rng)
        self._pool: List[bytes] = []
        self._pool_flows: List[FlowSpec] = []
        self._cursor = 0
        self._seq = 0
        self._build_pool()

    def _frame_length(self) -> int:
        raise NotImplementedError

    def _build_pool(self) -> None:
        for _ in range(self.spec.pool_size):
            flow = self._flows.pick()
            self._pool.append(build_frame(flow, self._frame_length()))
            self._pool_flows.append(flow)

    @property
    def flows(self) -> FlowSet:
        return self._flows

    def mean_frame_length(self) -> float:
        return sum(len(f) for f in self._pool) / len(self._pool)

    def next_packet(self, timestamp: float = 0.0) -> Packet:
        """Materialize the next packet from the pool."""
        frame = self._pool[self._cursor]
        flow = self._pool_flows[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._pool)
        pkt = Packet(frame, timestamp=timestamp)
        pkt.rss_hash = flow.rss_hash()
        pkt.set_anno_u32(ANNO_SEQUENCE, self._seq)
        self._seq += 1
        return pkt

    def packets(self, count: int, rate_pps: Optional[float] = None) -> Iterator[Packet]:
        """Yield ``count`` packets; with ``rate_pps`` set, timestamps advance CBR."""
        interval = 1.0 / rate_pps if rate_pps else 0.0
        for i in range(count):
            yield self.next_packet(timestamp=i * interval)


class FiniteTrace:
    """Cap any trace generator at ``limit`` packets (a finite capture).

    ``next_packet`` raises ``StopIteration`` once the limit is reached --
    the same exhaustion signal a replayed pcap produces -- which
    :meth:`repro.dpdk.nic.Nic.deliver` converts into a clean end of run.
    """

    def __init__(self, inner, limit: int):
        if limit < 0:
            raise ValueError("trace limit must be >= 0")
        self.inner = inner
        self.limit = limit
        self.produced = 0

    def next_packet(self, timestamp: float = 0.0) -> Packet:
        if self.produced >= self.limit:
            raise StopIteration("trace exhausted after %d packets" % self.limit)
        self.produced += 1
        return self.inner.next_packet(timestamp)

    @property
    def remaining(self) -> int:
        return self.limit - self.produced

    def mean_frame_length(self) -> float:
        return self.inner.mean_frame_length()

    @property
    def flows(self):
        return self.inner.flows


class FixedSizeTraceGenerator(_PooledTrace):
    """Synthetic trace of fixed-size frames (paper §4.3, §4.6)."""

    def __init__(self, frame_len: int, spec: Optional[TraceSpec] = None):
        if not MIN_FRAME <= frame_len <= MAX_FRAME + 4:  # +4 leaves room for VLAN tests
            raise ValueError("frame length %d outside [%d, %d]" % (frame_len, MIN_FRAME, MAX_FRAME + 4))
        self.frame_len = frame_len
        super().__init__(spec or TraceSpec())

    def _frame_length(self) -> int:
        return self.frame_len


class _PacedTrace(_PooledTrace):
    """Base class for paced congestion generators (the QoS workload side).

    Beyond the plain ``next_packet`` protocol these speak the *paced
    source* protocol the QoS-enabled NIC path uses:

    - :meth:`begin_poll` is called once per driver iteration to refresh
      the per-iteration arrival budget (fractional credits, so offered
      load need not be an integer per iteration).
    - :meth:`poll_packet` is called per RX slot with the set of
      currently *paused* priorities and returns one frame or ``None``
      (source idle, or every eligible priority paused).  A paused
      priority's frames stay at the source -- that is what PFC
      backpressure means -- up to a bounded credit cap; load shed beyond
      the cap is accounted in :attr:`source_throttled` rather than
      silently lost, so conservation audits can close the ledger.

    ``limit`` (0 = unbounded) caps total emission; hitting it raises
    ``StopIteration`` exactly like :class:`FiniteTrace`.
    """

    def __init__(self, rates: Mapping[int, float], limit: int = 0,
                 frame_len: int = 256, burst_cap: float = 4.0,
                 spec: Optional[TraceSpec] = None):
        if limit < 0:
            raise ValueError("trace limit must be >= 0")
        for prio, rate in rates.items():
            if not 0 <= prio <= 7:
                raise ValueError("priority %d outside 802.1p range" % prio)
            if rate < 0:
                raise ValueError("negative rate for priority %d" % prio)
        self.rates: Dict[int, float] = dict(rates)
        self.limit = limit
        self.frame_len = frame_len
        #: Credit ceiling, in multiples of each priority's per-iteration
        #: rate: bounds the backlog that builds while paused, so XON
        #: release produces a bounded recovery burst, not a flood.
        self.burst_cap = burst_cap
        self._credit: Dict[int, float] = {p: 0.0 for p in self.rates}
        self._caps: Dict[int, float] = {
            p: max(1.0, r * burst_cap) for p, r in self.rates.items()
        }
        self.produced = 0
        #: Per-priority counts of frames actually emitted.
        self.emitted: Dict[int, int] = {p: 0 for p in self.rates}
        #: Fractional load shed at the source because the paused backlog
        #: hit the credit cap (units: packets).
        self.source_throttled = 0.0
        self._rr = sorted(self.rates)
        super().__init__(spec or TraceSpec())

    def _frame_length(self) -> int:
        return self.frame_len

    def _refresh(self, prio: int, amount: float) -> None:
        want = self._credit[prio] + amount
        new = min(want, self._caps[prio])
        self.source_throttled += want - new
        self._credit[prio] = new

    def begin_poll(self) -> None:
        """Refresh this iteration's arrival credits (NIC hook)."""
        for prio, rate in self.rates.items():
            self._refresh(prio, rate)

    def poll_packet(self, paused: FrozenSet[int] = frozenset()) -> Optional[Packet]:
        """Emit one frame from an unpaused priority, or ``None``."""
        if self.limit and self.produced >= self.limit:
            raise StopIteration(
                "trace exhausted after %d packets" % self.produced)
        # Round-robin across priorities so no class starves another at
        # the source; contention is created downstream, at the queues.
        for _ in range(len(self._rr)):
            prio = self._rr[0]
            self._rr = self._rr[1:] + [prio]
            if self._credit[prio] >= 1.0 and prio not in paused:
                self._credit[prio] -= 1.0
                pkt = self.next_packet()
                pkt.priority = prio
                self.produced += 1
                self.emitted[prio] += 1
                return pkt
        return None


class OversubscribedTrace(_PacedTrace):
    """Constant offered load exceeding the service capacity.

    ``rates`` maps 802.1p priority to offered packets per driver
    iteration.  Point it at a pipeline whose :class:`RatedQueue` drains
    fewer packets per iteration than the sum of the rates and the
    difference must go somewhere: queue occupancy, shared-pool spill,
    PFC pause (frames held here, at the source), or counted drops.
    """


class IncastBurstTrace(_PacedTrace):
    """Synchronized many-to-one bursts -- the incast pattern.

    Every ``period`` iterations, ``senders`` sources each contribute a
    ``burst_len``-packet burst at ``priority`` (default 0, the lossless
    class in the shipped QoS configs); between bursts an optional
    constant ``background_rate`` flows at ``background_priority``.  The
    burst arrives faster than any reasonable service rate can drain --
    exactly the transient that shared headroom and PFC exist to absorb.
    """

    def __init__(self, senders: int = 8, burst_len: int = 4, period: int = 8,
                 priority: int = 0, background_rate: float = 0.0,
                 background_priority: int = 1, limit: int = 0,
                 frame_len: int = 128, spec: Optional[TraceSpec] = None):
        if senders < 1 or burst_len < 1 or period < 1:
            raise ValueError("incast needs positive senders/burst_len/period")
        self.senders = senders
        self.burst_len = burst_len
        self.period = period
        self.burst_priority = priority
        rates: Dict[int, float] = {priority: 0.0}
        if background_rate:
            rates[background_priority] = background_rate
        self._iteration = 0
        super().__init__(rates, limit=limit, frame_len=frame_len, spec=spec)
        # The burst backlog may hold up to two full incasts while paused.
        self._caps[priority] = float(2 * senders * burst_len)

    def begin_poll(self) -> None:
        if self._iteration % self.period == 0:
            self._refresh(self.burst_priority,
                          float(self.senders * self.burst_len))
        self._iteration += 1
        for prio, rate in self.rates.items():
            if rate:
                self._refresh(prio, rate)


def _mix32(x: int) -> int:
    """A 32-bit finalizer (murmur3-style): pure, well-mixing, cheap."""
    x &= 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x7FEB352D) & 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 0x846CA68B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


#: One immutable CDF per ``(n_flows, zipf_s)``: a shared table, not a
#: cache of results, so it has no gate.  ``repro.exec.cache.reset_caches()``
#: clears it, so a timed cold build builds its CDF again.
_ZIPF_CDFS: Dict[Tuple[int, float], array] = {}


def zipf_cdf(n_flows: int, zipf_s: float) -> array:
    """The Zipf(``zipf_s``) CDF over ranks ``0..n_flows-1``, 8 bytes per rank.

    Shared by every caller with the same key; never mutate it.  The float
    operations and their order are those of ``(rank + 1) ** -s``, ``sum``
    and a running sum of ``w / total``, so every entry is bit-exact.
    """
    key = (n_flows, zipf_s)
    cdf = _ZIPF_CDFS.get(key)
    if cdf is None:
        weights = array("d", map(pow, range(1, n_flows + 1), repeat(-zipf_s)))
        total = sum(weights)
        cdf = array("d", accumulate(map(truediv, weights, repeat(total))))
        _ZIPF_CDFS[key] = cdf
    return cdf


class _LazyFlowView:
    """Sequence facade over a :class:`SkewedTraceGenerator`'s flow space."""

    __slots__ = ("_gen",)

    def __init__(self, gen: "SkewedTraceGenerator"):
        self._gen = gen

    def __len__(self) -> int:
        return self._gen.n_flows

    def __getitem__(self, rank: int) -> FlowSpec:
        return self._gen.flow_at(rank)


class SkewedTraceGenerator:
    """A million-flow trace with configurable popularity skew.

    The "millions of users" workload: the flow population is *lazy* -- a
    flow is a pure function of ``(seed, rank)``, so a million-flow (or
    billion-flow) population costs nothing to stand up.  Popularity is
    either uniform (``zipf_s=None``) or Zipf(s) over ranks, sampled from
    the :func:`zipf_cdf` table shared by every generator with the same
    ``(n_flows, zipf_s)`` (8 bytes per rank; a pickled generator carries
    its own copy).  Small ranks are the elephants: at
    ``zipf_s=1.1`` over a million flows the top flow alone carries ~7% of
    packets, which is exactly the load RSS cannot spread (every packet of
    a flow must stay on one queue) and what the ``rss_imbalance``
    experiment measures.

    Speaks the plain trace protocol (``next_packet`` / ``packets`` /
    ``mean_frame_length`` / ``flows``), so it drops in anywhere a pooled
    generator does, including under :class:`FiniteTrace`.

    ``shift_at`` makes the elephant set *non-stationary*: every
    ``shift_at`` packets the rank->flow mapping rotates by
    ``shift_offset`` (default ``n_flows // 2``), so a different set of
    flows becomes hot while the popularity *distribution* is unchanged.
    The rotation is a pure function of the emitted-packet index, so the
    trace stays deterministic and pure in ``(seed, rank)`` -- the
    workload that separates steering policies that merely converge once
    from policies that keep adapting.
    """

    def __init__(self, n_flows: int = 1_000_000, zipf_s: Optional[float] = None,
                 frame_len: int = 256, seed: int = 7,
                 src_subnet: str = "10.0.0.0", dst_subnet: str = "192.168.0.0",
                 shift_at: Optional[int] = None,
                 shift_offset: Optional[int] = None):
        if n_flows < 1:
            raise ValueError("flow count must be >= 1")
        if not MIN_FRAME <= frame_len <= MAX_FRAME:
            raise ValueError("frame length %d outside [%d, %d]"
                             % (frame_len, MIN_FRAME, MAX_FRAME))
        if zipf_s is not None and zipf_s <= 0:
            raise ValueError("zipf_s must be positive (or None for uniform)")
        if shift_at is not None and shift_at < 1:
            raise ValueError("shift_at must be >= 1 (or None for stationary)")
        if shift_offset is not None and shift_at is None:
            raise ValueError("shift_offset needs shift_at")
        self.n_flows = n_flows
        self.zipf_s = zipf_s
        self.frame_len = frame_len
        self.seed = seed
        self.shift_at = shift_at
        self.shift_offset = (
            0 if shift_at is None
            else (shift_offset if shift_offset is not None
                  else max(1, n_flows // 2)))
        self._src_base = IPv4Address(src_subnet).value
        self._dst_base = IPv4Address(dst_subnet).value
        self._rng = random.Random(seed)
        self._seq = 0
        self._cdf: Optional[array] = (
            None if zipf_s is None else zipf_cdf(n_flows, zipf_s))

    def flow_at(self, rank: int) -> FlowSpec:
        """The flow at popularity rank ``rank`` (pure in seed and rank)."""
        if not 0 <= rank < self.n_flows:
            raise IndexError("flow rank %d outside population" % rank)
        h1 = _mix32(self.seed * 0x9E3779B9 + 2 * rank + 1)
        h2 = _mix32(h1 ^ (rank + 0x5851F42D))
        r = h1 % 100
        proto = PROTO_TCP if r < 85 else (PROTO_UDP if r < 99 else PROTO_ICMP)
        # 10/8 sources x /16 destinations: a million distinct tuples with
        # destinations the shipped routing tables still cover.
        src_ip = IPv4Address(self._src_base + 1 + (h2 % ((1 << 24) - 2)))
        dst_ip = IPv4Address(self._dst_base + 1 + (h1 >> 16) % 65534)
        if proto == PROTO_ICMP:
            src_port = dst_port = 0
        else:
            src_port = 1024 + (h2 >> 16) % (65536 - 1024)
            dst_port = (80, 443, 53, 8080, 22)[h1 % 5]
        return FlowSpec(src_ip=src_ip, dst_ip=dst_ip, proto=proto,
                        src_port=src_port, dst_port=dst_port)

    def _pick_rank(self) -> int:
        u = self._rng.random()
        if self._cdf is None:
            return min(int(u * self.n_flows), self.n_flows - 1)
        return bisect_left(self._cdf, u)

    @property
    def flows(self) -> _LazyFlowView:
        return _LazyFlowView(self)

    def mean_frame_length(self) -> float:
        return float(self.frame_len)

    def next_packet(self, timestamp: float = 0.0) -> Packet:
        rank = self._pick_rank()
        if self.shift_at is not None:
            # Rotate the hot set every shift_at packets: popularity rank
            # is unchanged, which flows hold it is a pure function of
            # the packet index.
            rotations = self._seq // self.shift_at
            if rotations:
                rank = (rank + rotations * self.shift_offset) % self.n_flows
        flow = self.flow_at(rank)
        pkt = Packet(build_frame(flow, self.frame_len), timestamp=timestamp)
        pkt.rss_hash = flow.rss_hash()
        pkt.set_anno_u32(ANNO_SEQUENCE, self._seq)
        self._seq += 1
        return pkt

    def packets(self, count: int, rate_pps: Optional[float] = None) -> Iterator[Packet]:
        interval = 1.0 / rate_pps if rate_pps else 0.0
        for i in range(count):
            yield self.next_packet(timestamp=i * interval)


class CampusTraceGenerator(_PooledTrace):
    """Synthetic stand-in for the paper's 981-B-average campus trace.

    Internet mixes are bimodal: control/ACK segments near the 64-B minimum
    and bulk-transfer segments at the MTU.  The weights below give a mean
    frame size of ~981 B, matching the published trace statistic.
    """

    # (low, high, weight) size bands.  Mean ~= 981 B.
    SIZE_BANDS = (
        (64, 100, 0.245),
        (100, 576, 0.08),
        (576, 1200, 0.06),
        (1400, 1514, 0.615),
    )

    def _frame_length(self) -> int:
        u = self._rng.random()
        acc = 0.0
        for low, high, weight in self.SIZE_BANDS:
            acc += weight
            if u <= acc:
                return self._rng.randrange(low, high)
        return MAX_FRAME

    @classmethod
    def expected_mean(cls) -> float:
        """Analytic mean of the size distribution (for tests)."""
        return sum(w * (low + high - 1) / 2.0 for low, high, w in cls.SIZE_BANDS) / sum(
            w for _, _, w in cls.SIZE_BANDS
        )
