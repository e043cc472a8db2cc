"""DPDK I/O elements: the bridge between the graph and the PMD.

Both elements expose the bound port's drop/error counters through the
handler broker (``input.rx_nombuf``, ``input.imissed``, ``output.tx_full``,
and the full ``xstats`` dump) -- see :mod:`repro.click.handlers` and
:mod:`repro.faults` for the degraded paths that feed them.
"""

from __future__ import annotations

from repro.click.element import Element, register
from repro.compiler.ir import BranchHint, Compute, Program
from repro.compiler.passes.transforms import FOLDABLE_NOTE
from repro.dpdk.nic import DEFAULT_BURST


def _burst(kwargs) -> int:
    burst = int(kwargs.get("BURST", DEFAULT_BURST))
    if not 1 <= burst <= 256:
        raise ValueError("BURST must be positive and at most 256, not %d"
                         % burst)
    return burst


def rx_burst(graph) -> int:
    """The largest ``BURST`` among ``graph``'s ``FromDPDKDevice`` elements.

    The configuration is the one place a build's burst is stated: the
    driver drains queues in batches of it, and an RSS port sizes its
    ingest budget by it.
    """
    return max((e.param("burst") for e in graph.by_class("FromDPDKDevice")),
               default=DEFAULT_BURST)


@register
class FromDPDKDevice(Element):
    """Receives bursts of packets from a DPDK port.

    ``PORT``, ``N_QUEUES``, and ``BURST`` are the constant parameters the
    paper's Listing 3 embeds; the driver binds the element to the port's
    PMD at build time.
    """

    class_name = "FromDPDKDevice"
    n_inputs = 0

    def configure(self, args, kwargs):
        port = int(kwargs.get("PORT", args[0] if args else 0))
        self.declare_param("port", port)
        self.declare_param("n_queues", int(kwargs.get("N_QUEUES", 1)))
        self.declare_param("burst", _burst(kwargs))
        self.pmd = None  # bound at build time

    def xstats(self):
        """Element telemetry plus the bound port's drop/error counters."""
        out = super().xstats()
        if self.pmd is not None:
            out.update(self.pmd.nic.counters.snapshot())
        return out

    def process(self, pkt):
        return 0

    def ir_program(self) -> Program:
        # App-side RX loop body: bounds checks and batch list linking; the
        # driver-side conversion is the PMD's program.
        return Program(
            self.name,
            [
                self.param_read_op("burst"),
                self.param_read_op("port"),
                Compute(26, note=FOLDABLE_NOTE),
                Compute(64, note="batch-assembly"),
                BranchHint(0.02, note="ring-empty-check"),
            ],
        )


@register
class ToDPDKDevice(Element):
    """Queues packets for transmission on a DPDK port."""

    class_name = "ToDPDKDevice"
    n_outputs = 0

    def configure(self, args, kwargs):
        port = int(kwargs.get("PORT", args[0] if args else 0))
        self.declare_param("port", port)
        self.declare_param("burst", _burst(kwargs))
        self.pmd = None  # bound at build time

    def xstats(self):
        """Element telemetry plus the bound port's drop/error counters."""
        out = super().xstats()
        if self.pmd is not None:
            out.update(self.pmd.nic.counters.snapshot())
        return out

    def process(self, pkt):
        return 0  # the driver intercepts packets entering this element

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                self.param_read_op("burst"),
                self.param_read_op("port"),
                Compute(20, note=FOLDABLE_NOTE),
                Compute(48, note="batch-teardown"),
                BranchHint(0.02, note="ring-full-check"),
            ],
        )
