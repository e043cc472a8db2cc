"""Toolchain substrate: struct layouts, the mini-IR, and optimization passes.

PacketMill's code optimizations are *program transformations*: they change
which instructions run per packet and which cache lines get touched.  This
package expresses the per-packet work of every element and driver as a
small IR (:mod:`repro.compiler.ir`), applies the paper's passes to it
(:mod:`repro.compiler.passes`), and lowers the result to a compact
executable cost program (:mod:`repro.compiler.lower`).

Struct layouts (:mod:`repro.compiler.structlayout`) give every metadata
field a byte offset, so the LTO field-reordering pass has its real effect:
hot fields migrate into the first cache line and fewer lines are loaded
per packet.

Every build charges a lowered program through one loop,
:func:`~repro.compiler.runtime.execute_bases`, over the program's cached
op tuples.
"""

from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    DirectCall,
    FieldAccess,
    Op,
    ParamRead,
    PoolOp,
    Program,
    RandomAccess,
    StateAccess,
    VirtualCall,
)
from repro.compiler.structlayout import Field, LayoutRegistry, StructLayout

__all__ = [
    "BranchHint",
    "Compute",
    "DataAccess",
    "DirectCall",
    "Field",
    "FieldAccess",
    "LayoutRegistry",
    "Op",
    "ParamRead",
    "PoolOp",
    "Program",
    "RandomAccess",
    "StateAccess",
    "StructLayout",
    "VirtualCall",
]
