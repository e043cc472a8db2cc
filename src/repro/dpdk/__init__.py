"""Userspace NIC substrate: mbufs, mempools, rings, PCIe, and the PMD.

This package stands in for DPDK v20.02 plus a Mellanox ConnectX-5 NIC.
The poll-mode driver (:mod:`repro.dpdk.pmd`) implements the three metadata
management paths the paper compares -- Copying, Overlaying, and X-Change --
as lowered IR programs executed against the hardware model, so LTO and
struct reordering affect them exactly as they affect element code.
"""

from repro.dpdk.mbuf import (
    MBUF_DATA_ROOM,
    MBUF_HEADROOM,
    RTE_MBUF_SIZE,
    BufferRef,
    build_cqe_layout,
    build_mbuf_layout,
    build_tx_descriptor_layout,
)
from repro.dpdk.mempool import Mempool
from repro.dpdk.metadata import (
    CopyingModel,
    MetadataModel,
    OverlayingModel,
    XChangeModel,
    make_model,
)
from repro.dpdk.nic import Nic
from repro.dpdk.pcie import PcieModel
from repro.dpdk.pmd import MlxPmd
from repro.dpdk.ring import DescriptorRing

__all__ = [
    "BufferRef",
    "CopyingModel",
    "DescriptorRing",
    "MetadataModel",
    "OverlayingModel",
    "XChangeModel",
    "make_model",
    "MBUF_DATA_ROOM",
    "MBUF_HEADROOM",
    "Mempool",
    "MlxPmd",
    "Nic",
    "PcieModel",
    "RTE_MBUF_SIZE",
    "build_cqe_layout",
    "build_mbuf_layout",
    "build_tx_descriptor_layout",
]
