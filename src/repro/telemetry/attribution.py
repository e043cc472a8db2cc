"""Per-element cost attribution: which element burns the cycles?

The driver's cost accounting is one shared accumulator (the ``CpuCore``
and its perf counters), so a run's total says nothing about *where* the
cycles went.  Attribution tiles the run's timeline into buckets: the
driver marks the accumulators, executes one region (an element's charge,
a PMD burst, a drop release), and calls :meth:`CycleAttribution.sync`
with the bucket that owns everything since the previous mark.

Because every region between two marks is assigned to exactly one bucket
and the marks tile the run contiguously, the bucket totals sum to the
run's totals -- the conservation property the tests pin.  Integer events
(cache hits/misses) conserve exactly; cycles/instructions are floats and
conserve to floating-point accumulation error.

Buckets land in the registry under their own names --
``element.rt.cycles``, ``pmd.rx.instructions``, ``driver.cycles`` -- so
handlers, window samples, and exports see attribution through the same
glob reads as every other counter.  A sync may also name the packets its
region handled (an element's batch, a PMD burst); those land in
``<bucket>.packets``, created on first use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import CounterRegistry

#: Bucket for main-loop cost between attributed regions (poll loop,
#: batch bookkeeping, queue draining) -- perf's ``[unknown]`` analogue,
#: except it is measured, not inferred.
DRIVER_BUCKET = "driver"

#: The accumulators every sync snapshots, in order.
TRACKED = (
    "cycles", "instructions",
    "l1_hits", "l2_hits", "llc_loads", "llc_hits", "llc_misses",
)


class CycleAttribution:
    """Mark/sync cost attribution over one core's accumulators."""

    def __init__(self, registry: CounterRegistry):
        self.registry = registry
        self.cpu = None
        self._mark: Optional[Tuple[float, ...]] = None
        self._buckets: Dict[str, List] = {}  # bucket -> [Counter, ...] per TRACKED
        self._packets: Dict[str, object] = {}  # bucket -> packets Counter

    def bind(self, cpu) -> None:
        """Attach the core whose accumulators are being attributed."""
        self.cpu = cpu
        self.rebase()

    def _read(self) -> Tuple[float, ...]:
        cpu = self.cpu
        counters = cpu.counters
        return (
            cpu.total_cycles(),
            cpu.instructions,
            counters.l1_hits,
            counters.l2_hits,
            counters.llc_loads,
            counters.llc_hits,
            counters.llc_misses,
        )

    def rebase(self) -> None:
        """Move the mark to "now" without attributing (stats reset)."""
        if self.cpu is not None:
            self._mark = self._read()

    def _handles(self, bucket: str) -> List:
        handles = self._buckets.get(bucket)
        if handles is None:
            handles = [
                self.registry.counter("%s.%s" % (bucket, metric))
                for metric in TRACKED
            ]
            self._buckets[bucket] = handles
        return handles

    def sync(self, bucket: str, packets: int = 0) -> None:
        """Attribute everything since the last mark to ``bucket``, which
        handled ``packets`` packets in that region."""
        now = self._read()
        mark = self._mark
        self._mark = now
        if mark is None:
            return
        for handle, new, old in zip(self._handles(bucket), now, mark):
            if new != old:
                handle.value += new - old
        if packets:
            handle = self._packets.get(bucket)
            if handle is None:
                handle = self._packets[bucket] = self.registry.counter(
                    bucket + ".packets")
            handle.value += packets

    # -- reading --------------------------------------------------------------

    def buckets(self) -> List[str]:
        return sorted(self._buckets)

    def totals(self, metric: str = "cycles") -> Dict[str, float]:
        """Per-bucket totals for one tracked metric."""
        index = TRACKED.index(metric)
        return {
            bucket: handles[index].value
            for bucket, handles in self._buckets.items()
        }

    def total(self, metric: str = "cycles") -> float:
        return sum(self.totals(metric).values())

    def top(self, metric: str = "cycles") -> List[Tuple[str, float, float]]:
        """``(bucket, value, share)`` rows, most expensive first."""
        totals = self.totals(metric)
        grand = sum(totals.values()) or 1.0
        rows = sorted(totals.items(), key=lambda kv: -kv[1])
        return [(bucket, value, value / grand) for bucket, value in rows]

    def format_top(self, metric: str = "cycles", limit: int = 0) -> str:
        """A ``perf report``-style table of the per-bucket breakdown."""
        rows = self.top(metric)
        if limit:
            rows = rows[:limit]
        lines = [
            "attribution by %s" % metric,
            "%8s  %14s  %-s" % ("share", metric, "bucket"),
        ]
        for bucket, value, share in rows:
            lines.append("%7.2f%%  %14.1f  %s" % (share * 100, value, bucket))
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, float]]:
        """Flat JSON/CSV-ready records, one per bucket."""
        out = []
        for bucket in self.buckets():
            record: Dict[str, float] = {"bucket": bucket}
            for metric, handle in zip(TRACKED, self._buckets[bucket]):
                record[metric] = handle.value
            out.append(record)
        return out
