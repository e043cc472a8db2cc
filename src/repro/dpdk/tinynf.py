"""TinyNF's driver model (Pirelli & Candea, OSDI'20), for the §3.1 contrast.

TinyNF removes dynamic packet metadata entirely: buffers are statically
bound to ring slots, processed in place, and transmitted in order.  That
makes the driver even leaner than X-Change -- but, as the paper notes, it
"prevents buffering of packets, such as switching packets between cores,
reordering packets, and stream processing".  We reproduce both sides: the
lean cost profile *and* the restriction (building a configuration that
contains a buffering element under TinyNF fails).
"""

from __future__ import annotations

from repro.compiler.ir import Compute, FieldAccess, Program
from repro.dpdk.metadata import XChangeModel, _cqe_read_ops, _tx_descriptor_ops
from repro.dpdk.xchg_api import minimal_conversions


class TinyNfModel(XChangeModel):
    """Static per-slot buffers, minimal metadata, in-order processing."""

    name = "tinynf"
    supports_buffering = False

    def __init__(self):
        super().__init__(conversions=minimal_conversions(), meta_buffers=64)

    def rx_program(self) -> Program:
        ops = list(_cqe_read_ops())
        # No allocation, no exchange: just stamp length and address into
        # the slot's static metadata.
        for item in ("buffer", "length"):
            struct, field, binding = self._conversion_target(item)
            ops.append(FieldAccess(struct, field, write=True, target=binding))
        ops.append(Compute(30, note="rx-descriptor-maintenance"))
        return Program("pmd_rx_tinynf", ops)

    def tx_program(self) -> Program:
        ops = []
        for item in ("buffer", "length"):
            struct, field, binding = self._conversion_target(item)
            ops.append(FieldAccess(struct, field, target=binding))
        ops.extend(_tx_descriptor_ops())
        ops.append(Compute(18, note="tx-in-order"))
        return Program("pmd_tx_tinynf", ops)
