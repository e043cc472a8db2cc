"""Saturated-throughput measurement with physical rate ceilings.

The hardware model yields a CPU service rate (packets/s one core can
process); the *achieved* rate is additionally bounded by the 100-Gbps
link, the PCIe link, and the non-vectorized MLX5 single-queue ceiling --
the "other bottlenecks" that flatten Fig. 5's curves at high frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.binary import MeasuredRun, SpecializedBinary
from repro.dpdk.pcie import PcieModel


@dataclass
class ThroughputPoint:
    """One steady-state throughput measurement."""

    pps: float
    gbps: float
    cpu_pps: float
    ns_per_packet: float
    mean_frame_len: float
    bound_by: str  # "cpu" | "queue" | "pcie" | "link"
    run: MeasuredRun

    @property
    def mpps(self) -> float:
        return self.pps / 1e6

    @property
    def fault_degraded(self) -> bool:
        """Whether the measured run shed load to faults (vs being CPU-bound)."""
        return self.run.stats is not None and self.run.stats.fault_degraded

    def counter_per_window(self, name: str, window_s: float = 0.1) -> float:
        """perf-style events per 100 ms at the achieved rate."""
        return self.run.counters[name] / self.run.packets * self.pps * window_s


def _apply_ceilings(cpu_pps: float, frame_len: float, params, n_ports: int,
                    n_queues: int = 1):
    """Clamp the CPU rate by the per-port physical limits.

    Each port has ``n_queues`` RX queues (one per core under RSS), so the
    queue ceiling scales with them; the link and PCIe ceilings are the
    port's, whatever its queue count.
    """
    pcie = PcieModel(params)
    limits = {
        "cpu": cpu_pps,
        "queue": params.nic_queue_pps_limit * n_queues * n_ports,
        "pcie": pcie.pps_limit(frame_len) * n_ports,
        "link": params.line_rate_pps(frame_len) * n_ports,
    }
    bound_by = min(limits, key=limits.get)
    return limits[bound_by], bound_by


def measure_throughput(
    binary: SpecializedBinary,
    batches: int = 250,
    warmup_batches: int = 120,
) -> ThroughputPoint:
    """Measure one binary at saturation."""
    run = binary.measure(batches=batches, warmup_batches=warmup_batches)
    return throughput_point(run, binary.params, len(binary.pmds))


def throughput_point(run: MeasuredRun, params, n_ports: int) -> ThroughputPoint:
    """The saturated point of a single-core ``run`` on ``n_ports`` ports,
    its CPU rate clamped by ``params``' physical ceilings."""
    cpu_pps = 1e9 / run.ns_per_packet
    frame = run.mean_frame_len or 64.0
    pps, bound_by = _apply_ceilings(cpu_pps, frame, params, n_ports)
    return ThroughputPoint(
        pps=pps,
        gbps=pps * frame * 8 / 1e9,
        cpu_pps=cpu_pps,
        ns_per_packet=run.ns_per_packet,
        mean_frame_len=frame,
        bound_by=bound_by,
        run=run,
    )


def measure_sharded(
    runtime,
    batches: int = 200,
    warmup_batches: int = 100,
) -> ThroughputPoint:
    """Measure an RSS-sharded runtime at saturation.

    Warms up and steps the whole cluster in interleaved rounds (the
    :class:`~repro.core.sharded.ShardedRuntime` already round-robins its
    replicas, so their cache footprints contend in the shared LLC), then
    folds the per-core runs into one cluster-level point.  The aggregate
    CPU rate is the sum of per-core service rates, clamped by the shared
    link/PCIe (RSS splits one port's traffic, so the port ceilings apply
    to the *sum*, at the mean frame length of every replica's transmitted
    packets); the queue ceiling scales with cores because every core
    adds an RX queue.  A 1-core sharded runtime produces a point
    *bit-identical* to :func:`measure_throughput` on the unsharded
    binary -- the identity the tier-1 suite pins.

    The point's ``run`` is replica 0's :class:`MeasuredRun`: core 0's own
    packets, counters and stats, not a cluster aggregate.  ``pps``,
    ``gbps``, ``cpu_pps``, ``ns_per_packet`` and ``mean_frame_len`` cover
    every replica.
    """
    runtime.warmup(warmup_batches)
    runtime.run_batches(batches)
    runs = runtime.runs()
    first = runtime.replicas[0]
    params = first.params
    n_ports = len(first.pmds)
    total_cpu_pps = sum(1e9 / r.ns_per_packet for r in runs)
    tx_packets = sum(r.tx_packets for r in runs)
    frame = (sum(r.tx_bytes for r in runs) / tx_packets
             if tx_packets else 64.0)
    pps, bound_by = _apply_ceilings(total_cpu_pps, frame, params, n_ports,
                                    runtime.n_cores)
    total_packets = sum(r.packets for r in runs)
    total_ns = sum(r.elapsed_ns for r in runs)
    return ThroughputPoint(
        pps=pps,
        gbps=pps * frame * 8 / 1e9,
        cpu_pps=total_cpu_pps,
        ns_per_packet=total_ns / total_packets if total_packets else float("inf"),
        mean_frame_len=frame,
        bound_by=bound_by,
        run=runs[0],
    )
