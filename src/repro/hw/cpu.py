"""Core-level cost accounting.

A :class:`CpuCore` accumulates the cost of executing a compiled packet
program: instruction issue (bounded by the core's sustainable IPC),
exposed cache/branch stalls in core cycles, and uncore/memory stalls in
wall-clock nanoseconds.  From these it derives the quantities the paper
reports: time per packet, packets per second, and instructions per cycle.
"""

from __future__ import annotations

from typing import Tuple

from repro.hw.memory import MemorySystem


def clock_time(core_cycles: float, uncore_ns: float,
               freq_ghz: float) -> Tuple[float, float]:
    """``(elapsed_ns, total_cycles)`` of a run at the core clock ``freq_ghz``.

    Core cycles scale with the clock and uncore time does not; nothing
    else in a closed-loop run depends on the frequency, so one run's
    ``core_cycles`` and ``uncore_ns`` give its time at every clock.
    """
    return (core_cycles / freq_ghz + uncore_ns,
            core_cycles + uncore_ns * freq_ghz)


class CpuCore:
    """One simulated core bound to a shared :class:`MemorySystem`."""

    def __init__(self, params, mem: MemorySystem, core_id: int = 0):
        self.params = params
        self.mem = mem
        self.core_id = core_id
        self.instructions = 0.0
        self.core_cycles = 0.0
        self.uncore_ns = 0.0

    # -- charging ----------------------------------------------------------------

    def charge_compute(self, instructions: float) -> None:
        """Pure ALU work: cost is issue-bandwidth-limited."""
        self.instructions += instructions
        self.core_cycles += instructions / self.params.issue_ipc

    def charge_cycles(self, cycles: float, instructions: float = 0.0) -> None:
        """Explicit stall cycles (e.g. dependency chains, fixed overheads)."""
        self.core_cycles += cycles
        self.instructions += instructions

    def charge_ns(self, ns: float) -> None:
        """Wall-clock cost in the uncore/I/O domain."""
        self.uncore_ns += ns

    def charge_branch_miss(self, count: float = 1.0) -> None:
        self.core_cycles += self.params.branch_miss_cycles * count
        self.mem.counters[self.core_id].handles.branch_misses.value += round(count)

    def mem_access(self, addr: int, size: int = 8, write: bool = False,
                   instructions: float = 1.0) -> None:
        """Issue a load/store through the cache hierarchy."""
        cycles, ns = self.mem.access(self.core_id, addr, size, write)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    def prefetch(self, addr: int, size: int = 64) -> None:
        """Issue a software prefetch (1 instruction, overlapped latency).

        The PMD's receive prefetches are charged with its programs, by
        ``MemorySystem.charge``, with the same float operations.
        """
        ns = self.mem.prefetch(self.core_id, addr, size)
        self.instructions += 1
        self.core_cycles += 1 / self.params.issue_ipc
        self.uncore_ns += ns

    def dispatch_access(self, instructions: float = 1.0) -> None:
        """One dynamic-graph dispatch load (vtable/element/port pointer)."""
        cycles, ns = self.mem.dispatch_access(self.core_id)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    def random_access(self, footprint: int, instructions: float = 1.0) -> None:
        """One random access into a large working set (WorkPackage model)."""
        cycles, ns = self.mem.analytic_access(self.core_id, footprint)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    # -- results -------------------------------------------------------------------

    @property
    def counters(self):
        return self.mem.counters[self.core_id]

    def elapsed_ns(self) -> float:
        """Total wall-clock time accounted so far."""
        return clock_time(self.core_cycles, self.uncore_ns,
                          self.params.freq_ghz)[0]

    def total_cycles(self) -> float:
        """Core cycles elapsed, counting uncore stalls at the core clock --
        what ``perf``'s ``cycles`` event measures."""
        return clock_time(self.core_cycles, self.uncore_ns,
                          self.params.freq_ghz)[1]

    def ipc(self) -> float:
        cycles = self.total_cycles()
        if cycles == 0:
            return 0.0
        return self.instructions / cycles

    def reset(self) -> None:
        self.instructions = 0.0
        self.core_cycles = 0.0
        self.uncore_ns = 0.0
