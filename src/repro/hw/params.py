"""Machine model parameters, calibrated once against public Skylake-SP data
and the paper's published absolute numbers (see DESIGN.md §5).

Every experiment uses the same :class:`MachineParams` instance; nothing is
re-tuned per experiment, so all relative effects emerge from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KB = 1024
MB = 1024 * KB


@dataclass
class MachineParams:
    """Parameters of the simulated DUT (Xeon Gold 6140 class machine)."""

    # -- clocks ---------------------------------------------------------------
    freq_ghz: float = 2.3
    """Core frequency; the experiments sweep 1.2-3.0 GHz."""

    uncore_ghz: float = 2.4
    """Uncore frequency, pinned at the maximum as in the paper's testbed."""

    # -- cache geometry (Skylake-SP) ------------------------------------------
    cache_line: int = 64
    l1_size: int = 32 * KB
    l1_assoc: int = 8
    l2_size: int = 1 * MB
    l2_assoc: int = 16
    llc_size: int = 24 * MB + 768 * KB  # 24.75 MB shared
    llc_assoc: int = 11

    ddio_ways: int = 2
    """LLC ways NIC DMA may allocate into (default IIO configuration).
    The paper raises this to 8 (IIO LLC WAYS = 0x7F8) on the DUT."""

    # -- access costs ----------------------------------------------------------
    issue_ipc: float = 3.2
    """Sustainable instructions-per-cycle of the out-of-order core on
    branchy pointer-heavy packet-processing code (below the 4-wide peak)."""

    l1_hit_cycles: float = 0.0
    """L1 hits are hidden by the OoO window; cost is folded into issue."""

    l2_hit_cycles: float = 10.0
    """Extra core cycles exposed by an L1 miss that hits L2."""

    llc_hit_ns: float = 18.0
    """Uncore wall-clock latency for an LLC hit (~44 cycles at 2.4 GHz)."""

    dram_ns: float = 85.0
    """Uncore+DRAM latency for an LLC miss."""

    mlp: float = 4.0
    """Memory-level parallelism: batch processing overlaps this many
    outstanding LLC/DRAM misses, dividing their exposed latency."""

    prefetch_mlp: float = 8.0
    """Software prefetches (the MLX5 RX loop prefetches CQEs, mbufs, and
    packet data ahead of use) overlap more deeply than demand misses."""

    random_access_mlp: float = 2.0
    """Data-dependent random accesses (hash/table/WorkPackage walks)
    expose most of their latency; only adjacent packets overlap them."""

    branch_miss_cycles: float = 18.0
    """Indirect-branch misprediction penalty (virtual calls)."""

    # -- TLB --------------------------------------------------------------------
    page_size: int = 4096
    dtlb_entries: int = 64
    stlb_entries: int = 1536
    tlb_walk_ns: float = 25.0

    # -- NIC / PCIe --------------------------------------------------------------
    link_gbps: float = 100.0
    ether_overhead_bytes: int = 20  # preamble + SFD + IFG + FCS framing on the wire
    pcie_gbps: float = 112.0
    """Effective PCIe 3.0 x16 payload bandwidth (Neugebauer et al.)."""

    pcie_per_packet_ns: float = 38.0
    """Per-packet PCIe/NIC descriptor overhead; caps small-packet pps and
    makes pps fall once large frames saturate PCIe (paper Fig. 6)."""

    rx_ring_size: int = 1024
    tx_ring_size: int = 1024

    nic_queue_pps_limit: float = 12.3e6
    """Per-RX-queue packet-rate ceiling of the (non-vectorized) MLX5 path;
    this is the "other bottleneck" that flattens Fig. 5's curves at high
    core frequencies when a single RX/TX queue is used."""

    # -- graph-dispatch locality (DESIGN.md §5 anchor) ---------------------------
    dispatch_loads_per_element: int = 5
    """Pointer-chase loads per element visit per batch with a *dynamic*
    graph: element object, vtable, port array, next-element hop."""

    heap_dispatch_p_l2: float = 0.10
    heap_dispatch_p_llc: float = 0.25
    heap_dispatch_p_dram: float = 0.65
    """Locality of dynamic-dispatch metadata on the ASLR-randomized heap,
    calibrated to Table 1's Vanilla row (LLC loads/misses per packet).
    Conflict-miss behaviour under address-space randomization is below the
    fidelity of an LRU simulator, so it enters as a measured anchor; the
    static-graph variant replaces these loads with exact accesses to the
    packed static segment, which the cache model keeps warm on its own."""

    # -- derived helpers -----------------------------------------------------------

    def at_frequency(self, freq_ghz: float) -> "MachineParams":
        """A copy of these parameters with a different core clock."""
        return replace(self, freq_ghz=freq_ghz)

    def line_of(self, addr: int) -> int:
        return addr // self.cache_line

    def page_of(self, addr: int) -> int:
        return addr // self.page_size

    def wire_time_ns(self, frame_len: int) -> float:
        """Time one frame occupies the 100-Gbps wire, framing included."""
        bits = (frame_len + self.ether_overhead_bytes) * 8
        return bits / self.link_gbps

    def line_rate_pps(self, frame_len: int) -> float:
        """Maximum packets/s the link can carry at this frame length."""
        return 1e9 / self.wire_time_ns(frame_len)


DEFAULT_PARAMS = MachineParams()
