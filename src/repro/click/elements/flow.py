"""Flow-control and utility elements: Queue, PaintSwitch, Print, SetIPChecksum.

``Queue`` matters beyond completeness: buffering packets is exactly the
capability the paper says TinyNF's driver model forecloses ("it prevents
buffering of packets, such as switching packets between cores, reordering
packets, and stream processing") and X-Change preserves.  A configuration
containing a Queue therefore builds with every metadata model *except*
TinyNF (see :mod:`repro.dpdk.tinynf`).
"""

from __future__ import annotations

from collections import deque

from repro.click.element import Element, register
from repro.compiler.ir import BranchHint, Compute, FieldAccess, Program, StateAccess
from repro.net.packet import ANNO_PAINT


@register
class Queue(Element):
    """A bounded FIFO that decouples its input from its output.

    Packets are absorbed on push and drained by the driver at the end of
    each main-loop iteration (FastClick's full-push Queue).  Overflow is
    drop-tail.
    """

    class_name = "Queue"
    #: Marks elements that hold packets across iterations (TinyNF cannot).
    buffers_packets = True

    def configure(self, args, kwargs):
        capacity = int(kwargs.get("CAPACITY", args[0] if args else 1024))
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.declare_param("capacity", capacity, size=4)
        self._fifo = deque()
        self.enqueued = 0
        self.overflows = 0

    def process(self, pkt):
        if len(self._fifo) >= self.param("capacity"):
            self.overflows += 1
            return None  # drop-tail: the driver kills the packet
        self._fifo.append(pkt)
        self.enqueued += 1
        return -1  # sentinel: held, not forwarded (driver understands)

    def drain(self, max_packets: int):
        """Pop up to ``max_packets`` in FIFO order."""
        out = []
        while self._fifo and len(out) < max_packets:
            out.append(self._fifo.popleft())
        return out

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                self.param_read_op("capacity"),
                StateAccess(0, 16, write=True),   # head/tail indices
                FieldAccess("Packet", "next", write=True),  # FIFO linkage
                Compute(8, note="enqueue"),
                BranchHint(0.02, note="queue-full"),
            ],
        )


@register
class PaintSwitch(Element):
    """Route packets by their paint annotation (one output per color)."""

    class_name = "PaintSwitch"

    def configure(self, args, kwargs):
        self.n_outputs = int(kwargs.get("N", args[0] if args else 2))

    def process(self, pkt):
        color = pkt.anno_u8(ANNO_PAINT)
        if color >= self.n_outputs:
            return None
        return color

    def dispatch_predicates(self):
        """Port ``i`` fires exactly when ``paint_anno == i`` -- so an
        upstream ``Paint(c)`` decides the whole dispatch statically."""
        return [{"meta": {"paint_anno": i}} for i in range(self.n_outputs)]

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                FieldAccess("Packet", "paint_anno"),
                Compute(4, note="switch"),
                BranchHint(0.10, note="color-dispatch"),
            ],
        )


@register
class Print(Element):
    """Log a label and basic packet facts (a debug tap)."""

    class_name = "Print"

    def configure(self, args, kwargs):
        self.label = args[0] if args else "Print"
        self.max_prints = int(kwargs.get("MAXPRINTS", 0))  # 0 = unlimited log
        self.lines = []

    def process(self, pkt):
        if not self.max_prints or len(self.lines) < self.max_prints:
            self.lines.append("%s: %d bytes, port %d" % (self.label, len(pkt), pkt.port))
        return 0

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [FieldAccess("Packet", "length"), Compute(20, note="format-log")],
        )


@register
class SetIPChecksum(Element):
    """Recompute the IPv4 header checksum from scratch."""

    class_name = "SetIPChecksum"

    def configure(self, args, kwargs):
        self.fixed = 0

    def process(self, pkt):
        pkt.ip().recompute_checksum()
        self.fixed += 1
        return 0

    def ir_program(self) -> Program:
        from repro.compiler.ir import DataAccess

        return Program(
            self.name,
            [
                DataAccess(14, 20),
                DataAccess(24, 2, write=True),
                Compute(32, note="full-checksum"),
            ],
        )
