"""The MLX5-class poll-mode driver.

``rx_burst``/``tx_burst`` mirror DPDK's PMD entry points: poll the
completion queue, run the metadata model's per-packet conversion program,
and keep the RX ring replenished / the TX ring reaped.  All driver-side
work is charged through the lowered IR programs the build's compile step
produced (:func:`repro.compiler.pipeline.compile_pmd`), so enabling LTO
(which inlines X-Change's conversion calls) changes the driver's cost
exactly as recompiling DPDK with ``-flto`` does.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.compiler.lower import ExecProgram
from repro.compiler.runtime import execute_bases
from repro.dpdk.metadata import MetadataModel
from repro.dpdk.nic import Nic
from repro.net.packet import Packet

#: Instructions per rx_burst/tx_burst invocation (poll loop, ring indexes).
BURST_OVERHEAD_INSTRUCTIONS = 26.0
#: Posted-write doorbell cost per TX burst (MMIO over PCIe).
DOORBELL_NS = 30.0
#: TX ring occupancy beyond which completed buffers are reaped.
TX_FREE_THRESHOLD = 32
#: The MLX5 RX loop's prefetches before it converts a packet, in issue
#: order: the CQE, the rte_mbuf (none under X-Change, whose base is 0),
#: the metadata struct and the packet's first lines.  Rows are
#: ``(base index, bytes, skip a zero base)`` over ``execute_bases``'s
#: (meta, mbuf, descriptor, data, state) bases.
RX_PREFETCH = ((2, 64, False), (1, 128, True), (0, 128, False),
               (3, 128, False))


class MlxPmd:
    """One port's poll-mode driver bound to a CPU core."""

    def __init__(
        self,
        nic: Nic,
        model: MetadataModel,
        cpu,
        programs: Tuple[ExecProgram, ExecProgram],
    ):
        """``programs`` is the lowered ``(rx, tx)`` pair for ``model``,
        from :func:`repro.compiler.pipeline.compile_pmd`."""
        self.nic = nic
        self.model = model
        self.cpu = cpu
        self.rx_exec, self.tx_exec = programs
        # Optional repro.telemetry.SpanRecorder; when bound, rx_burst
        # brackets its DMA and conversion stages as nested spans.
        self.spans = None
        self._fill_rx_ring()

    def _fill_rx_ring(self) -> None:
        self._replenish_rx(cpu=None)

    def _replenish_rx(self, cpu) -> None:
        """Top the RX ring back up; allocation failure is an rx_nombuf drop.

        Real mlx5 keeps posting until the ring is full or ``rte_mbuf_raw_alloc``
        fails, in which case it bumps ``rx_nombuf`` and retries next poll --
        the run degrades instead of aborting.
        """
        nic = self.nic
        want = nic.rx_ring.free_slots
        bufs = self.model.try_rx_buffers(want, cpu)
        for buf in bufs:
            nic.post_rx(buf)
        if len(bufs) < want:
            nic.counters.rx_nombuf += 1

    # -- RX ---------------------------------------------------------------------

    def rx_burst(self, max_burst: int) -> List[Packet]:
        """Receive up to ``max_burst`` packets, charging the driver path."""
        self.cpu.charge_compute(BURST_OVERHEAD_INSTRUCTIONS)
        spans = self.spans
        if spans is not None:
            spans.push("dma")
        delivered = self.nic.deliver(max_burst)
        if spans is not None:
            spans.pop()
            spans.push("convert")
        cpu = self.cpu
        model = self.model
        out: List[Packet] = []
        rows = []
        for ref, pkt in delivered:
            if pkt.rx_error is not None:
                # Hardware offload validation: damaged frames are flagged
                # in the CQE and discarded here as counted drops, the
                # buffer going straight back to the pool.  The frames
                # before it are charged first, as the loop reached them.
                if rows:
                    execute_bases(cpu, self.rx_exec, rows, RX_PREFETCH)
                    rows = []
                counters = self.nic.counters
                counters.rx_errors += 1
                if pkt.rx_error == "truncated":
                    counters.rx_truncated += 1
                else:
                    counters.rx_corrupt += 1
                model.release((ref,), cpu)
                ticket = pkt.qos_ticket
                if ticket is not None:
                    # The discarded frame leaves the system here; release
                    # its ingress buffer charge.
                    pkt.qos_ticket = None
                    ticket[0].drain(ticket[1])
                continue
            ref = model.on_rx(ref, cpu)
            rows.append((ref.meta_addr, ref.mbuf_addr, ref.cqe_addr,
                         ref.data_addr, 0))
            pkt.mbuf = ref
            out.append(pkt)
        if rows:
            # Prefetch and convert every packet in one charge.
            execute_bases(cpu, self.rx_exec, rows, RX_PREFETCH)
        if spans is not None:
            spans.pop()
        # Replenish the RX ring with as many buffers as were consumed
        # (topping up any deficit a previous allocation failure left).
        self._replenish_rx(self.cpu)
        return out

    # -- TX -----------------------------------------------------------------------

    def tx_burst(self, packets: List[Packet]) -> int:
        """Transmit a batch; returns the number of packets sent.

        The ring pushes, the ``tx_full`` cut and the QoS drains run per
        packet, in order; the TX programs are charged after them in one
        call, each frame's DMA read just before its program.  None of the
        per-packet steps charges the model, so the charge is the
        per-packet sequence.  A packet without a buffer raises after the
        packets before it are charged.
        """
        if not packets:
            return 0
        cpu = self.cpu
        nic = self.nic
        cpu.charge_compute(BURST_OVERHEAD_INSTRUCTIONS)
        injector = nic.faults
        blocked = injector is not None and injector.tx_blocked(nic.port)
        tx_ring = nic.tx_ring
        rows = []
        try:
            for pkt in packets:
                ref = pkt.mbuf
                if ref is None:
                    raise ValueError("packet has no attached DPDK buffer")
                if blocked or tx_ring.is_full():
                    # TX backpressure: refuse the rest of the burst as
                    # counted drops and let the driver loop kill the unsent
                    # packets.
                    nic.counters.tx_full += len(packets) - len(rows)
                    break
                wqe_addr, first_line, last_line = nic.transmit(ref, len(pkt))
                rows.append((ref.meta_addr, ref.mbuf_addr, wqe_addr,
                             ref.data_addr, 0, first_line, last_line))
                ticket = pkt.qos_ticket
                if ticket is not None:
                    # Transmitted: the frame leaves the ingress buffer.
                    pkt.qos_ticket = None
                    ticket[0].drain(ticket[1])
        finally:
            if rows:
                execute_bases(cpu, self.tx_exec, rows, dma_read=True)
        cpu.charge_ns(DOORBELL_NS)
        self.model.release(nic.reap_tx(TX_FREE_THRESHOLD), cpu)
        return len(rows)

    def drain_tx(self) -> None:
        """Release every in-flight TX buffer (end of run)."""
        self.model.release(self.nic.reap_tx(0), self.cpu)

    def recover(self) -> None:
        """Watchdog recovery: reap all TX completions, refill the RX ring.

        This is the reset a stalled pipeline needs after a fault window
        closes -- buffers stuck on the TX ring go back to the pool, and
        the RX ring is topped up so polling can make progress again.
        """
        self.drain_tx()
        self._replenish_rx(self.cpu)

