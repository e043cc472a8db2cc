"""Ethernet-layer elements."""

from __future__ import annotations

from repro.click.element import Element, ElementConfigError, register
from repro.compiler.ir import Compute, DataAccess, Program
from repro.compiler.passes.transforms import FOLDABLE_NOTE
from repro.net.addresses import MacAddress
from repro.net.protocols import ETHERTYPE_IP
from repro.net.protocols.ether import EtherHeader


@register
class EtherMirror(Element):
    """Swap source and destination MAC addresses (the simple forwarder)."""

    class_name = "EtherMirror"

    def process(self, pkt):
        pkt.ether().swap_addresses()
        return 0

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [DataAccess(0, 12, write=True), Compute(10, note="mac-swap")],
        )


@register
class EtherRewrite(Element):
    """Overwrite both MAC addresses with configured constants."""

    class_name = "EtherRewrite"

    def configure(self, args, kwargs):
        src = kwargs.get("SRC", args[0] if len(args) > 0 else None)
        dst = kwargs.get("DST", args[1] if len(args) > 1 else None)
        if src is None or dst is None:
            raise ElementConfigError("EtherRewrite needs SRC and DST MACs")
        self.declare_param("src", MacAddress(src), size=8)
        self.declare_param("dst", MacAddress(dst), size=8)

    def process(self, pkt):
        pkt.ether().set_addresses(self.param("dst"), self.param("src"))
        return 0

    def const_writes(self):
        """Both MAC fields leave as configured constants (dst at bytes
        0-5, src at 6-11 -- wire order)."""
        dst = int(self.param("dst")).to_bytes(6, "big")
        src = int(self.param("src")).to_bytes(6, "big")
        data = {i: b for i, b in enumerate(dst)}
        data.update({6 + i: b for i, b in enumerate(src)})
        return {"data": data}

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                self.param_read_op("src"),
                self.param_read_op("dst"),
                DataAccess(0, 12, write=True),
                Compute(8, note=FOLDABLE_NOTE),
            ],
        )


@register
class EtherEncap(Element):
    """Prepend a fresh Ethernet header (constant type/src/dst)."""

    class_name = "EtherEncap"

    def configure(self, args, kwargs):
        if len(args) < 3:
            raise ElementConfigError("EtherEncap needs ETHERTYPE, SRC, DST")
        ethertype = int(args[0], 16)  # Click writes ethertypes in hex
        self.declare_param("ethertype", ethertype or ETHERTYPE_IP, size=2)
        self.declare_param("src", MacAddress(args[1]), size=8)
        self.declare_param("dst", MacAddress(args[2]), size=8)

    def process(self, pkt):
        pkt.push(EtherHeader.LENGTH)
        header = EtherHeader(pkt.buffer, pkt.headroom)
        header.dst = self.param("dst")
        header.src = self.param("src")
        header.ethertype = self.param("ethertype")
        if pkt.mac_header_offset is None:
            pkt.mac_header_offset = 0
        return 0

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                self.param_read_op("ethertype"),
                self.param_read_op("src"),
                self.param_read_op("dst"),
                DataAccess(0, 14, write=True),
                Compute(12, note=FOLDABLE_NOTE),
            ],
        )
