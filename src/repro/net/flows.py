"""Flow (5-tuple) modelling and RSS hashing for trace generation."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from repro.net.addresses import IPv4Address
from repro.net.rss import toeplitz_v4

# Protocol numbers (duplicated from protocols to avoid a layering cycle).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True)
class FlowSpec:
    """An IPv4 5-tuple identifying one flow."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    proto: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FlowSpec":
        """The return-direction flow (as a NAT's reverse mapping sees it)."""
        return FlowSpec(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            proto=self.proto,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def rss_hash(self) -> int:
        """The Microsoft Toeplitz 32-bit receive-side-scaling hash.

        Exactly the hash a ConnectX-class NIC computes with the default
        key (:mod:`repro.net.rss`): TCP/UDP hash the 12-byte
        addresses+ports input, other protocols the 8-byte addresses-only
        input.  Memoized per tuple -- trace pools draw the same flows
        over and over.
        """
        return _toeplitz_of(self.src_ip.value, self.dst_ip.value,
                            self.proto, self.src_port, self.dst_port)


@lru_cache(maxsize=65536)
def _toeplitz_of(src_ip: int, dst_ip: int, proto: int,
                 src_port: int, dst_port: int) -> int:
    return toeplitz_v4(src_ip, dst_ip, proto, src_port, dst_port)


class FlowSet:
    """A reproducible population of flows with Zipf-like popularity.

    Campus/ISP traffic is heavy-tailed: a few elephant flows carry most
    packets.  ``pick()`` draws flows with a Zipf(s) popularity so generated
    traces exhibit realistic locality (which matters for the NAT's hash
    table and the router's route cache behaviour).
    """

    def __init__(
        self,
        count: int,
        rng: random.Random,
        proto_mix=((PROTO_TCP, 0.85), (PROTO_UDP, 0.14), (PROTO_ICMP, 0.01)),
        src_subnet: str = "10.0.0.0",
        dst_subnet: str = "192.168.0.0",
        zipf_s: float = 1.1,
    ):
        if count < 1:
            raise ValueError("flow count must be >= 1")
        self._rng = rng
        self._flows = []
        protos, weights = zip(*proto_mix)
        src_base = IPv4Address(src_subnet).value
        dst_base = IPv4Address(dst_subnet).value
        for i in range(count):
            proto = rng.choices(protos, weights=weights)[0]
            flow = FlowSpec(
                src_ip=IPv4Address(src_base + rng.randrange(1, 1 << 16)),
                dst_ip=IPv4Address(dst_base + rng.randrange(1, 1 << 16)),
                proto=proto,
                src_port=rng.randrange(1024, 65536) if proto != PROTO_ICMP else 0,
                dst_port=rng.choice((80, 443, 53, 8080, 22))
                if proto != PROTO_ICMP
                else 0,
            )
            self._flows.append(flow)
        # Precompute a Zipf CDF over flow ranks for O(log n) sampling.
        harmonics = [1.0 / ((rank + 1) ** zipf_s) for rank in range(count)]
        total = sum(harmonics)
        self._cdf = list(accumulate(h / total for h in harmonics))

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows)

    def __getitem__(self, index: int) -> FlowSpec:
        return self._flows[index]

    def pick(self) -> FlowSpec:
        """Sample one flow according to the Zipf popularity."""
        cdf = self._cdf
        return self._flows[bisect_left(cdf, self._rng.random(), 0, len(cdf) - 1)]
