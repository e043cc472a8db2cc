"""Figure 8: a more compute-intensive NF -- IDS + VLAN + router.

Throughput and median latency vs. frequency, Vanilla vs. PacketMill.
Claims: gains persist for CPU-heavier NFs (~20% throughput, ~17%
latency at the nominal frequency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import ids_router
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import QUICK, Row, Scale, format_rows
from repro.experiments.result import ExperimentResult, series_points
from repro.perf.loadlatency import LoadLatencySimulator

VARIANTS = {
    "Vanilla": BuildOptions.vanilla(),
    "PacketMill": BuildOptions.packetmill(),
}


@dataclass
class Fig08Result(ExperimentResult):
    frequencies: List[float]
    gbps: Dict[str, List[float]]
    median_latency_us: Dict[str, List[float]]

    name = "fig08"

    def _params(self):
        return {"frequencies": list(self.frequencies)}

    def _points(self):
        return series_points("freq_ghz", self.frequencies, {
            "gbps": self.gbps,
            "median_latency_us": self.median_latency_us,
        })


def run(scale: Scale = QUICK) -> Fig08Result:
    freqs = list(scale.frequencies)
    gbps: Dict[str, List[float]] = {}
    latency: Dict[str, List[float]] = {}
    config = ids_router()
    specs = [
        PointSpec(config, options, freq, scale.batches, scale.warmup_batches)
        for options in VARIANTS.values()
        for freq in freqs
    ]
    points = iter(run_points(specs))
    for name in VARIANTS:
        g_series, l_series = [], []
        for freq in freqs:
            point = next(points)
            g_series.append(point.gbps)
            sim = LoadLatencySimulator(1e9 / point.pps, ring_size=1024)
            res = sim.run(point.pps * 1.05, n_packets=scale.latency_packets // 2)
            l_series.append(res.p50_us)
        gbps[name] = g_series
        latency[name] = l_series
    return Fig08Result(freqs, gbps, latency)


def check(result: Fig08Result) -> None:
    for i, freq in enumerate(result.frequencies):
        vanilla = result.gbps["Vanilla"][i]
        packetmill = result.gbps["PacketMill"][i]
        gain = (packetmill - vanilla) / vanilla
        assert gain > 0.08, "throughput gain %.1f%% at %.1f GHz" % (gain * 100, freq)
        lat_cut = 1 - result.median_latency_us["PacketMill"][i] / result.median_latency_us["Vanilla"][i]
        assert lat_cut > 0.05, "latency cut %.1f%% at %.1f GHz" % (lat_cut * 100, freq)


def format_table(result: Fig08Result) -> str:
    rows = []
    for name in VARIANTS:
        for i, freq in enumerate(result.frequencies):
            rows.append(
                Row(
                    label=name,
                    values={
                        "freq_GHz": freq,
                        "gbps": result.gbps[name][i],
                        "p50_us": result.median_latency_us[name][i],
                    },
                )
            )
    return format_rows(
        rows,
        ["freq_GHz", "gbps", "p50_us"],
        header="Figure 8: IDS+VLAN+router, frequency sweep",
    )
