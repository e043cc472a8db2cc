"""The output of a PacketMill build: a specialized, executable binary.

A :class:`SpecializedBinary` bundles everything one core needs to run the
network function: the instantiated graph, the compiled per-element cost
programs, the PMDs, and the hardware model instances.  It exposes the
measurement primitives the perf harness drives (warmup, timed runs,
counter snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.click.driver import RouterDriver, RunStats
from repro.hw.cpu import clock_time


@dataclass
class MeasuredRun:
    """Results of one timed run of a binary.

    ``core_cycles`` and ``uncore_ns`` are the run's clock-independent
    time (see :func:`repro.hw.cpu.clock_time`); :meth:`at_frequency`
    re-evaluates the run at another core clock from them.
    """

    packets: int
    tx_packets: int
    tx_bytes: int
    drops: int
    elapsed_ns: float
    instructions: float
    total_cycles: float
    counters: dict
    core_cycles: float = 0.0
    uncore_ns: float = 0.0
    #: The driver's full RunStats (drop ledger included), when available.
    stats: Optional[RunStats] = None
    #: The build's repro.telemetry.Telemetry bundle, when available.  A
    #: live handle into the registry, not a measurement -- two runs with
    #: identical numbers must compare equal regardless of which bundle
    #: produced them.
    telemetry: Optional[object] = field(default=None, compare=False)

    def at_frequency(self, freq_ghz: float) -> "MeasuredRun":
        """This run as the same closed loop measures it at ``freq_ghz``."""
        elapsed_ns, total_cycles = clock_time(self.core_cycles,
                                              self.uncore_ns, freq_ghz)
        return replace(self, elapsed_ns=elapsed_ns,
                       total_cycles=total_cycles, counters=dict(self.counters))

    @property
    def ns_per_packet(self) -> float:
        return self.elapsed_ns / self.packets if self.packets else float("inf")

    @property
    def cycles_per_packet(self) -> float:
        return self.total_cycles / self.packets if self.packets else float("inf")

    @property
    def ipc(self) -> float:
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def mean_frame_len(self) -> float:
        return self.tx_bytes / self.tx_packets if self.tx_packets else 0.0


class SpecializedBinary:
    """One built network function bound to one core."""

    def __init__(self, *, options, params, graph, driver: RouterDriver,
                 cpu, mem, space, pmds: Dict[int, object], registry,
                 exec_programs, trace, model, pass_manager=None):
        self.options = options
        self.params = params
        self.graph = graph
        self.driver = driver
        self.cpu = cpu
        self.mem = mem
        self.space = space
        self.pmds = pmds
        self.registry = registry
        self.exec_programs = exec_programs
        self.trace = trace
        self.model = model
        self.pass_manager = pass_manager
        self.injector = None  # set by PacketMill when a fault schedule is wired

    # -- measurement ------------------------------------------------------------

    def warmup(self, batches: int = 100) -> None:
        """Run until caches/TLBs/rings reach steady state, then reset stats."""
        self.driver.run_batches(batches)
        self.reset_measurements()

    def reset_measurements(self) -> None:
        self.cpu.reset()
        self.mem.reset_counters()
        self.driver.reset_stats()

    def run(self, batches: int) -> MeasuredRun:
        """Run ``batches`` main-loop iterations and collect the numbers."""
        stats: RunStats = self.driver.run_batches(batches)
        counters = self.cpu.counters
        packets = stats.rx_packets
        counters.packets += packets
        return MeasuredRun(
            packets=packets,
            tx_packets=stats.tx_packets,
            tx_bytes=stats.tx_bytes,
            drops=stats.drops,
            elapsed_ns=self.cpu.elapsed_ns(),
            instructions=self.cpu.instructions,
            total_cycles=self.cpu.total_cycles(),
            # The perf events plus the run's drop ledger, so reports can
            # tell "CPU-bound" from "fault-degraded" (all zero on a
            # healthy run).
            counters={**counters.snapshot(), **stats.ledger()},
            core_cycles=self.cpu.core_cycles,
            uncore_ns=self.cpu.uncore_ns,
            stats=stats,
            telemetry=getattr(self.driver, "telemetry", None),
        )

    def measure(self, batches: int = 300, warmup_batches: int = 120) -> MeasuredRun:
        """Warm up, then measure a steady-state run."""
        self.warmup(warmup_batches)
        return self.run(batches)

    # -- introspection ---------------------------------------------------------------

    def element(self, name: str):
        return self.graph.element(name)

    def packet_layout(self):
        """The active (possibly reordered) app metadata layout."""
        return self.registry.get("Packet")

    def describe(self) -> str:
        lines = [
            "SpecializedBinary(%s)" % self.options.label(),
            "  elements: %d" % len(self.graph),
            "  metadata: %s (reorder=%s)" % (
                self.options.metadata_model.value,
                self.options.reorder_metadata,
            ),
            "  freq: %.1f GHz" % self.params.freq_ghz,
        ]
        return "\n".join(lines)
