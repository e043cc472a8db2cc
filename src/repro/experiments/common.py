"""Shared experiment plumbing: scales and table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: The evaluation's DUT nominal frequency.
DUT_FREQ_GHZ = 2.3
#: The microarchitectural-metrics frequency (Table 1).
PERF_FREQ_GHZ = 3.0


@dataclass(frozen=True)
class Scale:
    """How big the measurement grid and each measurement run are."""

    name: str
    warmup_batches: int
    batches: int
    frequencies: Sequence[float]
    packet_sizes: Sequence[int]
    latency_packets: int
    footprints_mb: Sequence[float]
    work_numbers: Sequence[int]

    def trace_packets(self) -> int:
        return self.batches * 32


#: The CI-size grid: every experiment at a fraction of QUICK's run length.
SMOKE = Scale(
    name="smoke",
    warmup_batches=40,
    batches=80,
    frequencies=(1.2, 2.0, 3.0),
    packet_sizes=(64, 512, 1472),
    latency_packets=20_000,
    footprints_mb=(1.0, 8.0, 16.0),
    work_numbers=(0, 20),
)

QUICK = Scale(
    name="quick",
    warmup_batches=80,
    batches=160,
    frequencies=(1.2, 1.6, 2.0, 2.4, 2.8, 3.0),
    packet_sizes=(64, 256, 512, 768, 1024, 1280, 1472),
    latency_packets=60_000,
    footprints_mb=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    work_numbers=(0, 8, 20),
)

FULL = Scale(
    name="full",
    warmup_batches=150,
    batches=400,
    frequencies=(1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0),
    packet_sizes=(64, 128, 192, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1472),
    latency_packets=200_000,
    footprints_mb=(0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0),
    work_numbers=(0, 4, 8, 12, 16, 20),
)


@dataclass
class Row:
    """One generic result row: a label plus named measurements."""

    label: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]


def format_rows(rows: List[Row], columns: Sequence[str],
                header: Optional[str] = None, fmt: str = "%10.2f") -> str:
    """Fixed-width table rendering for experiment output."""
    label_width = max(12, max((len(r.label) for r in rows), default=12) + 2)
    lines = []
    if header:
        lines.append(header)
    lines.append("%-*s" % (label_width, "") + "".join("%12s" % c for c in columns))
    for row in rows:
        cells = []
        for column in columns:
            value = row.values.get(column)
            if value is None:
                cells.append("%12s" % "-")
            elif isinstance(value, str):
                cells.append("%12s" % value)
            else:
                cells.append("%12s" % (fmt % value).strip())
        lines.append("%-*s" % (label_width, row.label) + "".join(cells))
    return "\n".join(lines)


def improvement_pct(baseline: float, improved: float) -> float:
    """Relative improvement in percent."""
    if baseline == 0:
        return 0.0
    return (improved - baseline) / baseline * 100.0
