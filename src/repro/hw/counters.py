"""perf-style hardware event counters.

The paper reports microarchitectural metrics sampled with ``perf`` every
100 ms (Table 1, §4.2, Fig. 9).  We count events per run and provide the
same per-100-ms view by scaling with the measured packet rate.

``PerfCounters`` is a :class:`repro.telemetry.registry.CounterView` over
one registry scope (``cpu.`` in a build's registry), so the same cells
the cache model bumps are what handler reads and window samples observe.
It counts microarchitectural events only: drops are counted by the NIC
and the driver (see :mod:`repro.telemetry.ledger`), never here.  The
memory system's hot loops go through :attr:`PerfCounters.handles`,
which holds direct :class:`~repro.telemetry.registry.Counter` references
so a cache hit costs one attribute walk plus an integer add, same as a
plain dataclass field bump.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.registry import CounterRegistry, CounterView

#: Every event the view exposes, in report/snapshot order.
PERF_FIELDS = (
    "instructions",
    "l1_hits",
    "l2_hits",
    "llc_loads",      # loads that reached the LLC (= L2 misses)
    "llc_hits",       # ... served by the LLC
    "llc_misses",     # ... that went to DRAM
    "dtlb_walks",
    "branch_misses",
    "ddio_fills",
    "packets",
)


class _Handles:
    """Direct counter handles for hot loops (one slot per event)."""

    __slots__ = PERF_FIELDS


class PerfCounters(CounterView):
    """Event counts accumulated over one measurement run.

    Constructed bare it owns a private registry (names are the bare event
    names); pass ``registry`` and a ``prefix`` to back it with shared
    storage instead.  ``PerfCounters(llc_loads=500, packets=100)`` sets
    initial values.
    """

    FIELDS = PERF_FIELDS

    __slots__ = ("handles",)

    def __init__(self, registry: Optional[CounterRegistry] = None,
                 prefix: str = "", **initial):
        super().__init__(registry, prefix, **initial)
        self.handles = _Handles()
        for name, cell in self._cells.items():
            setattr(self.handles, name, cell)

    def add(self, other: "PerfCounters") -> None:
        for name, cell in self._cells.items():
            cell.value += getattr(other, name)

    def per_packet(self, name: str) -> float:
        if self.packets == 0:
            raise ValueError("no packets recorded")
        return getattr(self, name) / self.packets

    def per_window(self, name: str, pps: float, window_s: float = 0.1) -> float:
        """Events per ``window_s`` at the measured packet rate (perf's view)."""
        return self.per_packet(name) * pps * window_s

    def llc_miss_ratio(self) -> float:
        """Fraction of LLC loads that missed to DRAM."""
        if self.llc_loads == 0:
            return 0.0
        return self.llc_misses / self.llc_loads
