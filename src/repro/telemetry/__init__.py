"""Telemetry (``repro.telemetry``): one counter/handler surface for the stack.

The paper's argument is *attribution* -- tying throughput to LLC loads,
misses, and IPC sampled by ``perf`` every 100 ms, per pipeline stage.
This package is the simulator's equivalent, in four pieces:

- :mod:`repro.telemetry.registry` -- the :class:`CounterRegistry`:
  hierarchical dotted names, typed counter/gauge handles, snapshot/delta
  semantics, glob reads, and mounts.  ``RunStats``, ``PerfCounters``,
  and the NIC xstats are :class:`CounterView` subclasses over it, and
  :mod:`repro.telemetry.ledger` says which cell counts each drop.
- :mod:`repro.telemetry.sampler` -- the 100-ms-window
  :class:`WindowSampler` driven by simulated time (the ``perf stat -I``
  view of a run).
- :mod:`repro.telemetry.attribution` -- :class:`CycleAttribution`:
  cycles, instructions, and cache events tiled into per-element /
  per-PMD buckets that sum to the run totals.
- :mod:`repro.telemetry.spans` / :mod:`~repro.telemetry.flamegraph` --
  packet-lifecycle spans (rx-dma > conversion > per-element > tx) with
  ASCII flamegraph/top rendering and JSON/CSV export.

Enable it per build with ``PacketMill(..., telemetry=TelemetryConfig())``.
Like ``repro.faults``, every observation hook is ``None``-guarded when
disabled, observation charges no simulated cost and draws no randomness,
so fig/report outputs are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from repro.telemetry.attribution import DRIVER_BUCKET, CycleAttribution
from repro.telemetry.flamegraph import (
    render_flamegraph,
    render_top,
    spans_to_csv,
    spans_to_json,
)
from repro.telemetry.ledger import LEDGER_FIELDS, LEDGER_NAMES
from repro.telemetry.registry import (
    COUNTER,
    GAUGE,
    Counter,
    CounterRegistry,
    CounterScope,
    MergedRegistry,
    TelemetryError,
    delta,
    is_glob,
)
from repro.telemetry.sampler import PAPER_WINDOW_NS, WindowSampler, WindowSample
from repro.telemetry.spans import SpanRecorder


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record beyond the always-on counter registry."""

    #: Close a registry window every ``window_ns`` of simulated time.
    windows: bool = True
    window_ns: float = PAPER_WINDOW_NS
    max_windows: int = 100_000
    #: Attribute cycles/instructions/cache events to elements and PMDs.
    attribution: bool = True
    #: Record packet-lifecycle spans for flamegraph/top views.
    spans: bool = True


class Telemetry:
    """One build's telemetry bundle: registry + optional recorders.

    Always owns a registry (counter storage is unconditional); the
    sampler, attribution, and span recorder exist only when the config
    asks for them, so the driver's hot-path guards stay ``None`` checks.
    """

    def __init__(self, registry: Optional[CounterRegistry] = None,
                 config: Optional[TelemetryConfig] = None):
        self.registry = registry if registry is not None else CounterRegistry()
        self.config = config
        self.sampler: Optional[WindowSampler] = None
        self.attribution: Optional[CycleAttribution] = None
        self.spans: Optional[SpanRecorder] = None
        if config is not None:
            if config.windows:
                self.sampler = WindowSampler(
                    self.registry, window_ns=config.window_ns,
                    max_windows=config.max_windows,
                )
            if config.attribution:
                self.attribution = CycleAttribution(self.registry)
            if config.spans:
                self.spans = SpanRecorder()

    @property
    def enabled(self) -> bool:
        """Whether any recorder beyond the registry is active."""
        return (self.sampler is not None or self.attribution is not None
                or self.spans is not None)

    # -- rendering convenience -------------------------------------------------

    def flamegraph(self, width: int = 40) -> str:
        if self.spans is None:
            return "(spans disabled)"
        return render_flamegraph(self.spans, width=width)

    def top(self, metric: str = "cycles") -> str:
        if self.attribution is None:
            return "(attribution disabled)"
        return self.attribution.format_top(metric)

    def windows_table(self, names=None) -> str:
        if self.sampler is None:
            return "(window sampling disabled)"
        return self.sampler.format_table(names)

    # -- export ---------------------------------------------------------------

    def to_json(self) -> str:
        """Everything recorded, as one JSON document."""
        doc = {"counters": self.registry.snapshot()}
        if self.sampler is not None:
            doc["windows"] = self.sampler.to_records()
        if self.attribution is not None:
            doc["attribution"] = self.attribution.to_records()
        if self.spans is not None:
            doc["spans"] = self.spans.to_records()
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The registry snapshot as ``name,value`` CSV."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["name", "value"])
        for name, value in self.registry.snapshot().items():
            writer.writerow([name, value])
        return out.getvalue()


__all__ = [
    "COUNTER",
    "Counter",
    "CounterRegistry",
    "MergedRegistry",
    "CounterScope",
    "CycleAttribution",
    "DRIVER_BUCKET",
    "GAUGE",
    "LEDGER_FIELDS",
    "LEDGER_NAMES",
    "PAPER_WINDOW_NS",
    "SpanRecorder",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryError",
    "WindowSample",
    "WindowSampler",
    "delta",
    "is_glob",
    "render_flamegraph",
    "render_top",
    "spans_to_csv",
    "spans_to_json",
]
