"""UDP header codec."""

from __future__ import annotations

from repro.net.checksum import incremental_update

UDP_HEADER_LEN = 8


class UdpHeader:
    """View over an 8-byte UDP header inside a buffer."""

    __slots__ = ("_buf", "_off")

    LENGTH = UDP_HEADER_LEN

    def __init__(self, buf: bytearray, offset: int):
        if len(buf) - offset < UDP_HEADER_LEN:
            raise ValueError("buffer too short for UDP header")
        self._buf = buf
        self._off = offset

    @classmethod
    def build(cls, src_port: int, dst_port: int, payload_len: int) -> bytes:
        header = bytearray(UDP_HEADER_LEN)
        header[0:2] = src_port.to_bytes(2, "big")
        header[2:4] = dst_port.to_bytes(2, "big")
        header[4:6] = (UDP_HEADER_LEN + payload_len).to_bytes(2, "big")
        # Checksum 0 = not computed; legal for UDP over IPv4.
        return bytes(header)

    @property
    def src_port(self) -> int:
        return int.from_bytes(self._buf[self._off : self._off + 2], "big")

    @src_port.setter
    def src_port(self, value: int) -> None:
        self._set_port(0, value)

    @property
    def dst_port(self) -> int:
        return int.from_bytes(self._buf[self._off + 2 : self._off + 4], "big")

    @dst_port.setter
    def dst_port(self, value: int) -> None:
        self._set_port(2, value)

    def _set_port(self, rel: int, value: int) -> None:
        off = self._off + rel
        old = int.from_bytes(self._buf[off : off + 2], "big")
        self._buf[off : off + 2] = value.to_bytes(2, "big")
        if self.checksum != 0:  # zero means "no checksum" for UDP/IPv4
            self.checksum = incremental_update(self.checksum, old, value) or 0xFFFF

    @property
    def length(self) -> int:
        return int.from_bytes(self._buf[self._off + 4 : self._off + 6], "big")

    @length.setter
    def length(self, value: int) -> None:
        self._buf[self._off + 4 : self._off + 6] = value.to_bytes(2, "big")

    @property
    def checksum(self) -> int:
        return int.from_bytes(self._buf[self._off + 6 : self._off + 8], "big")

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._buf[self._off + 6 : self._off + 8] = value.to_bytes(2, "big")

    def adjust_checksum_for_address(self, old_ip_words: tuple, new_ip_words: tuple) -> None:
        """Fix the UDP checksum after the pseudo-header address changed.

        A zero checksum means "no checksum" and stays zero; a computed zero
        is sent as 0xFFFF, as in ``_set_port``.
        """
        checksum = self.checksum
        if checksum == 0:
            return
        for old, new in zip(old_ip_words, new_ip_words):
            checksum = incremental_update(checksum, old, new)
        self.checksum = checksum or 0xFFFF

    def verify_structure(self, available: int) -> bool:
        """IDS-style structural check: UDP length fits the remaining bytes."""
        return UDP_HEADER_LEN <= self.length <= available

    def __repr__(self) -> str:
        return "UdpHeader(sport=%d, dport=%d, len=%d)" % (
            self.src_port,
            self.dst_port,
            self.length,
        )
