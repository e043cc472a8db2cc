"""IPv4 header codec with checksum support."""

from __future__ import annotations

from repro.net.addresses import IPv4Address
from repro.net.checksum import incremental_update, internet_checksum, verify_checksum

IPV4_MIN_HEADER_LEN = 20


def _address_value(ip) -> int:
    """An address setter's argument as an int: an in-range int passes as is;
    anything else goes through ``IPv4Address`` (which raises its own error)."""
    if type(ip) is int and 0 <= ip <= 0xFFFFFFFF:
        return ip
    return IPv4Address(ip).value


class Ipv4Header:
    """View over an IPv4 header (20 bytes + options) inside a buffer."""

    __slots__ = ("_buf", "_off")

    LENGTH = IPV4_MIN_HEADER_LEN

    def __init__(self, buf: bytearray, offset: int):
        if len(buf) - offset < IPV4_MIN_HEADER_LEN:
            raise ValueError("buffer too short for IPv4 header")
        self._buf = buf
        self._off = offset

    @classmethod
    def build(
        cls,
        src: IPv4Address,
        dst: IPv4Address,
        proto: int,
        payload_len: int,
        ttl: int = 64,
        ident: int = 0,
        dscp: int = 0,
        flags: int = 0x2,  # don't-fragment, like most modern stacks
    ) -> bytes:
        total_len = IPV4_MIN_HEADER_LEN + payload_len
        header = bytearray(IPV4_MIN_HEADER_LEN)
        header[0] = (4 << 4) | 5  # version 4, IHL 5
        header[1] = dscp << 2
        header[2:4] = total_len.to_bytes(2, "big")
        header[4:6] = ident.to_bytes(2, "big")
        header[6:8] = ((flags << 13) | 0).to_bytes(2, "big")
        header[8] = ttl
        header[9] = proto
        header[12:16] = src.packed
        header[16:20] = dst.packed
        header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
        return bytes(header)

    # -- field accessors ----------------------------------------------------

    @property
    def version(self) -> int:
        return self._buf[self._off] >> 4

    @property
    def ihl(self) -> int:
        """Header length in 32-bit words."""
        return self._buf[self._off] & 0x0F

    @property
    def header_len(self) -> int:
        return self.ihl * 4

    @property
    def total_len(self) -> int:
        return int.from_bytes(self._buf[self._off + 2 : self._off + 4], "big")

    @total_len.setter
    def total_len(self, value: int) -> None:
        self._buf[self._off + 2 : self._off + 4] = value.to_bytes(2, "big")

    @property
    def ident(self) -> int:
        return int.from_bytes(self._buf[self._off + 4 : self._off + 6], "big")

    @property
    def flags(self) -> int:
        return self._buf[self._off + 6] >> 5

    @property
    def frag_offset(self) -> int:
        raw = int.from_bytes(self._buf[self._off + 6 : self._off + 8], "big")
        return raw & 0x1FFF

    @property
    def ttl(self) -> int:
        return self._buf[self._off + 8]

    @ttl.setter
    def ttl(self, value: int) -> None:
        self._buf[self._off + 8] = value

    @property
    def proto(self) -> int:
        return self._buf[self._off + 9]

    @property
    def checksum(self) -> int:
        return int.from_bytes(self._buf[self._off + 10 : self._off + 12], "big")

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._buf[self._off + 10 : self._off + 12] = value.to_bytes(2, "big")

    @property
    def src(self) -> IPv4Address:
        return IPv4Address(self.src_value)

    @src.setter
    def src(self, ip) -> None:
        self._set_address(12, _address_value(ip))

    @property
    def src_value(self) -> int:
        off = self._off + 12
        return int.from_bytes(self._buf[off : off + 4], "big")

    @property
    def dst(self) -> IPv4Address:
        return IPv4Address(self.dst_value)

    @dst.setter
    def dst(self, ip) -> None:
        self._set_address(16, _address_value(ip))

    @property
    def dst_value(self) -> int:
        off = self._off + 16
        return int.from_bytes(self._buf[off : off + 4], "big")

    # -- operations ----------------------------------------------------------

    def _set_address(self, rel: int, value: int) -> None:
        """Rewrite an address field, incrementally fixing the checksum."""
        buf = self._buf
        off = self._off + rel
        csum_off = self._off + 10
        old = int.from_bytes(buf[off : off + 4], "big")
        checksum = int.from_bytes(buf[csum_off : csum_off + 2], "big")
        checksum = incremental_update(checksum, old >> 16, value >> 16)
        checksum = incremental_update(checksum, old & 0xFFFF, value & 0xFFFF)
        buf[off : off + 4] = value.to_bytes(4, "big")
        buf[csum_off : csum_off + 2] = checksum.to_bytes(2, "big")

    def header_bytes(self) -> bytes:
        return bytes(self._buf[self._off : self._off + self.header_len])

    def verify(self) -> bool:
        """Full header sanity check, as CheckIPHeader performs."""
        buf = self._buf
        off = self._off
        first = buf[off]
        if first >> 4 != 4:
            return False
        ihl = first & 0x0F
        if ihl < 5:
            return False
        header_len = ihl * 4
        if int.from_bytes(buf[off + 2 : off + 4], "big") < header_len:
            return False
        if len(buf) - off < header_len:
            return False
        return verify_checksum(bytes(buf[off : off + header_len]))

    def decrement_ttl(self) -> int:
        """Decrement TTL with the RFC 1624 incremental checksum fix.

        Returns the new TTL.  Callers must check for zero and drop/ICMP.
        """
        buf = self._buf
        off = self._off
        ttl = buf[off + 8]
        proto = buf[off + 9]
        buf[off + 8] = ttl - 1
        checksum = int.from_bytes(buf[off + 10 : off + 12], "big")
        checksum = incremental_update(checksum, (ttl << 8) | proto, ((ttl - 1) << 8) | proto)
        buf[off + 10 : off + 12] = checksum.to_bytes(2, "big")
        return ttl - 1

    def recompute_checksum(self) -> None:
        self.checksum = 0
        self.checksum = internet_checksum(self.header_bytes())

    def __repr__(self) -> str:
        return "Ipv4Header(src=%s, dst=%s, proto=%d, ttl=%d, len=%d)" % (
            self.src,
            self.dst,
            self.proto,
            self.ttl,
            self.total_len,
        )
