"""Ethernet II header codec."""

from __future__ import annotations

from repro.net.addresses import MacAddress

ETHER_HEADER_LEN = 14


class EtherHeader:
    """A mutable view over a 14-byte Ethernet II header inside a buffer."""

    __slots__ = ("_buf", "_off")

    LENGTH = ETHER_HEADER_LEN

    def __init__(self, buf: bytearray, offset: int = 0):
        if len(buf) - offset < ETHER_HEADER_LEN:
            raise ValueError("buffer too short for Ethernet header")
        self._buf = buf
        self._off = offset

    @classmethod
    def build(cls, dst: MacAddress, src: MacAddress, ethertype: int) -> bytes:
        """Serialize a fresh Ethernet header."""
        return dst.packed + src.packed + ethertype.to_bytes(2, "big")

    @property
    def dst(self) -> MacAddress:
        return MacAddress(bytes(self._buf[self._off : self._off + 6]))

    @dst.setter
    def dst(self, mac: MacAddress) -> None:
        self._buf[self._off : self._off + 6] = MacAddress(mac).packed

    @property
    def src(self) -> MacAddress:
        return MacAddress(bytes(self._buf[self._off + 6 : self._off + 12]))

    @src.setter
    def src(self, mac: MacAddress) -> None:
        self._buf[self._off + 6 : self._off + 12] = MacAddress(mac).packed

    @property
    def ethertype(self) -> int:
        return int.from_bytes(self._buf[self._off + 12 : self._off + 14], "big")

    @ethertype.setter
    def ethertype(self, value: int) -> None:
        self._buf[self._off + 12 : self._off + 14] = value.to_bytes(2, "big")

    def set_addresses(self, dst: MacAddress, src: MacAddress) -> None:
        """Write both MACs in wire order (dst, then src) as one 12-byte slice."""
        self._buf[self._off : self._off + 12] = dst.packed + src.packed

    def swap_addresses(self) -> None:
        """Exchange source and destination MACs (EtherMirror's operation)."""
        off = self._off
        dst = bytes(self._buf[off : off + 6])
        self._buf[off : off + 6] = self._buf[off + 6 : off + 12]
        self._buf[off + 6 : off + 12] = dst

    def __repr__(self) -> str:
        return "EtherHeader(dst=%s, src=%s, type=0x%04x)" % (
            self.dst,
            self.src,
            self.ethertype,
        )
