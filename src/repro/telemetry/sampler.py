"""Windowed sampling of the counter registry over *simulated* time.

The paper's Table 1 / Fig. 9 numbers are ``perf`` samples taken every
100 ms of wall-clock time.  The simulator's clock is the hardware model's
accumulated nanoseconds, so the sampler closes a window every
``window_ns`` of simulated time and records the registry delta for that
window -- the same view ``perf stat -I 100`` gives on the real testbed.

Sampling happens at main-loop iteration granularity (the driver calls
:meth:`WindowSampler.observe` once per iteration), exactly like a timer
interrupt landing between bursts: a window closes at the first iteration
boundary past its edge, and its recorded ``t_end_ns`` is the true clock,
not the nominal edge.

Simulated runs are often shorter than one real 100-ms window, so
:meth:`WindowSample.per_100ms` normalizes any window (including the final
partial one) by its actual duration -- that normalized view is the
paper-comparable number regardless of the configured window length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.telemetry.registry import CounterRegistry, Number, delta

#: The paper's perf sampling interval, in simulated nanoseconds.
PAPER_WINDOW_NS = 100e6


@dataclass
class WindowSample:
    """One closed sampling window."""

    index: int
    t_start_ns: float
    t_end_ns: float
    #: Per-counter delta over this window.
    values: Dict[str, Number]
    #: Cumulative registry snapshot at window close (monotone for counters).
    cumulative: Dict[str, Number]
    #: True for the trailing window closed by :meth:`WindowSampler.flush`.
    partial: bool = False

    @property
    def duration_ns(self) -> float:
        return self.t_end_ns - self.t_start_ns

    def per_100ms(self, name: str) -> float:
        """This window's delta normalized to the paper's 100-ms interval."""
        if self.duration_ns <= 0:
            return 0.0
        return self.values.get(name, 0) * (PAPER_WINDOW_NS / self.duration_ns)

    def rate_per_s(self, name: str) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.values.get(name, 0) * 1e9 / self.duration_ns


@dataclass
class WindowSampler:
    """Closes registry windows as the simulated clock advances."""

    registry: CounterRegistry
    window_ns: float = PAPER_WINDOW_NS
    max_windows: int = 100_000
    windows: List[WindowSample] = field(default_factory=list)

    def __post_init__(self):
        if self.window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self._origin_ns = 0.0
        self._base: Dict[str, Number] = {}
        self._started = False

    # -- driving --------------------------------------------------------------

    def restart(self, now_ns: float) -> None:
        """Drop history and begin windowing from ``now_ns`` (stats reset)."""
        self.windows = []
        self._origin_ns = now_ns
        self._base = self.registry.snapshot()
        self._started = True

    def observe(self, now_ns: float) -> None:
        """Advance the sampler to ``now_ns``, closing any elapsed windows.

        When an iteration jumps more than one window, the whole delta is
        charged to the first elapsed window (the iteration that crossed
        it) and the remaining windows close empty -- matching how a
        sampling profiler attributes one long event.
        """
        if not self._started:
            self.restart(now_ns)
            return
        while (now_ns - self._origin_ns >= self.window_ns
               and len(self.windows) < self.max_windows):
            snap = self.registry.snapshot()
            end = min(now_ns, self._origin_ns + self.window_ns)
            self.windows.append(
                WindowSample(
                    index=len(self.windows),
                    t_start_ns=self._origin_ns,
                    t_end_ns=end,
                    values=delta(snap, self._base),
                    cumulative=snap,
                )
            )
            self._base = snap
            self._origin_ns += self.window_ns

    def flush(self, now_ns: float) -> None:
        """Close the trailing partial window, if it saw any time."""
        if not self._started:
            return
        self.observe(now_ns)
        if now_ns > self._origin_ns and len(self.windows) < self.max_windows:
            snap = self.registry.snapshot()
            self.windows.append(
                WindowSample(
                    index=len(self.windows),
                    t_start_ns=self._origin_ns,
                    t_end_ns=now_ns,
                    values=delta(snap, self._base),
                    cumulative=snap,
                    partial=True,
                )
            )
            self._base = snap
            self._origin_ns = now_ns

    # -- reading --------------------------------------------------------------

    def series(self, name: str) -> List[Number]:
        """Per-window deltas of one counter."""
        return [w.values.get(name, 0) for w in self.windows]

    def cumulative_series(self, name: str) -> List[Number]:
        return [w.cumulative.get(name, 0) for w in self.windows]

    def format_table(self, names: Optional[Sequence[str]] = None,
                     normalize: bool = True) -> str:
        """A ``perf stat -I``-style table of the recorded windows."""
        if not self.windows:
            return "(no windows sampled)"
        if names is None:
            busiest = max(self.windows, key=lambda w: len(w.values))
            names = sorted(
                name for name, value in busiest.values.items() if value
            )[:8]
        header = "%10s %10s" % ("t_ms", "dur_ms")
        header += "".join("%16s" % n.rsplit(".", 1)[-1] for n in names)
        lines = [
            "window samples (%s, values %s)" % (
                "%g ns" % self.window_ns,
                "per 100 ms" if normalize else "per window",
            ),
            header,
        ]
        for window in self.windows:
            row = "%10.3f %10.3f" % (
                window.t_start_ns / 1e6, window.duration_ns / 1e6
            )
            for name in names:
                value = (window.per_100ms(name) if normalize
                         else window.values.get(name, 0))
                row += "%16.5g" % value
            if window.partial:
                row += "  (partial)"
            lines.append(row)
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, Number]]:
        """Flat JSON/CSV-ready records, one per window."""
        out = []
        for window in self.windows:
            record: Dict[str, Number] = {
                "window": window.index,
                "t_start_ns": window.t_start_ns,
                "t_end_ns": window.t_end_ns,
                "partial": int(window.partial),
            }
            record.update(window.values)
            out.append(record)
        return out
