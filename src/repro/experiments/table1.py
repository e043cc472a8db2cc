"""Table 1: microarchitectural metrics per optimization, router @3 GHz.

LLC kilo-loads and kilo-load-misses per 100 ms, IPC, and Mpps for the
five code-optimization variants.  The headline claims: the static graph
collapses LLC loads/misses by orders of magnitude, IPC climbs from ~2.2
to ~2.6, and packet rate rises ~20%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import router
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import (
    PERF_FREQ_GHZ,
    QUICK,
    Row,
    Scale,
    format_rows,
)
from repro.experiments.fig04 import VARIANTS
from repro.experiments.result import ExperimentResult


@dataclass
class Table1Result(ExperimentResult):
    metrics: Dict[str, Dict[str, float]]  # variant -> metric -> value

    name = "table1"

    def _points(self):
        return [
            dict({"variant": variant}, **values)
            for variant, values in self.metrics.items()
        ]


def run(scale: Scale = QUICK) -> Table1Result:
    metrics = {}
    config = router()
    specs = [
        PointSpec(config, options, PERF_FREQ_GHZ,
                  scale.batches, scale.warmup_batches)
        for _, options in VARIANTS
    ]
    for (name, _), point in zip(VARIANTS, run_points(specs)):
        metrics[name] = {
            "llc_kloads_100ms": point.counter_per_window("llc_loads") / 1e3,
            "llc_kmisses_100ms": point.counter_per_window("llc_misses") / 1e3,
            "ipc": point.run.ipc,
            "mpps": point.mpps,
        }
    return Table1Result(metrics)


def check(result: Table1Result) -> None:
    vanilla = result.metrics["Vanilla"]
    static = result.metrics["Static Graph"]
    all_opts = result.metrics["All"]
    # The static graph collapses LLC traffic (paper: loads ~45x, misses ~300x).
    assert static["llc_kloads_100ms"] < vanilla["llc_kloads_100ms"] / 3
    assert static["llc_kmisses_100ms"] < max(1.0, vanilla["llc_kmisses_100ms"] / 50)
    # IPC rises substantially (paper: 2.24 -> 2.58).
    assert static["ipc"] > vanilla["ipc"] + 0.2
    assert all_opts["ipc"] > vanilla["ipc"] + 0.2
    # Packet rate: All gains ~20% over Vanilla (paper: 8.66 -> 10.41 Mpps).
    gain = all_opts["mpps"] / vanilla["mpps"]
    assert 1.10 < gain < 1.45, "All/Vanilla Mpps ratio %.2f out of band" % gain
    # Absolute anchor: Vanilla within the calibration band of 8.66 Mpps.
    assert 7.5 < vanilla["mpps"] < 10.0


def format_table(result: Table1Result) -> str:
    rows = [
        Row(label=name, values=values) for name, values in result.metrics.items()
    ]
    return format_rows(
        rows,
        ["llc_kloads_100ms", "llc_kmisses_100ms", "ipc", "mpps"],
        header="Table 1: microarchitectural metrics, router @%.0f GHz" % PERF_FREQ_GHZ,
    )
