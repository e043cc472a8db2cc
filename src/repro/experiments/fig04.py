"""Figure 4: per-technique code optimizations, router, frequency sweep.

Throughput and median latency vs. core frequency for Vanilla,
Devirtualize, Constant Embedding, Static Graph, and All, with the linear
(throughput) and quadratic (latency) fits the figure annotates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import QUICK, Row, Scale, format_rows
from repro.experiments.result import ExperimentResult, series_points
from repro.perf.loadlatency import LoadLatencySimulator
from repro.perf.stats import linear_fit, quadratic_fit

VARIANTS = (
    ("Vanilla", BuildOptions.vanilla()),
    ("Devirtualize", BuildOptions.devirtualized()),
    ("Constant Embedding", BuildOptions.constant()),
    ("Static Graph", BuildOptions.static()),
    ("All", BuildOptions.all_code_opts()),
)


@dataclass
class Fig04Result(ExperimentResult):
    frequencies: List[float]
    throughput_gbps: Dict[str, List[float]]
    median_latency_us: Dict[str, List[float]]
    throughput_fits: Dict[str, Tuple[float, float, float]]
    latency_fits: Dict[str, Tuple[float, float, float, float]]

    name = "fig04"

    def _params(self):
        return {
            "frequencies": list(self.frequencies),
            "throughput_fits": {k: list(v) for k, v in self.throughput_fits.items()},
            "latency_fits": {k: list(v) for k, v in self.latency_fits.items()},
        }

    def _points(self):
        return series_points("freq_ghz", self.frequencies, {
            "gbps": self.throughput_gbps,
            "median_latency_us": self.median_latency_us,
        })


def run(scale: Scale = QUICK) -> Fig04Result:
    freqs = list(scale.frequencies)
    throughput: Dict[str, List[float]] = {}
    latency: Dict[str, List[float]] = {}
    config = router()
    specs = [
        PointSpec(config, options, freq, scale.batches, scale.warmup_batches)
        for _, options in VARIANTS
        for freq in freqs
    ]
    points = iter(run_points(specs))
    for name, options in VARIANTS:
        gbps_series = []
        lat_series = []
        for freq in freqs:
            point = next(points)
            gbps_series.append(point.gbps)
            # Median latency under the saturating replay the paper uses.
            sim = LoadLatencySimulator(1e9 / point.pps, ring_size=1024)
            res = sim.run(point.pps * 1.05, n_packets=scale.latency_packets // 2)
            lat_series.append(res.p50_us)
        throughput[name] = gbps_series
        latency[name] = lat_series
    throughput_fits = {
        name: linear_fit(freqs, series) for name, series in throughput.items()
    }
    latency_fits = {
        name: quadratic_fit(freqs, series) for name, series in latency.items()
    }
    return Fig04Result(freqs, throughput, latency, throughput_fits, latency_fits)


def check(result: Fig04Result) -> None:
    # Ordering at every frequency: All >= Static > Constant/Devirt > Vanilla.
    for i in range(len(result.frequencies)):
        vanilla = result.throughput_gbps["Vanilla"][i]
        devirt = result.throughput_gbps["Devirtualize"][i]
        constant = result.throughput_gbps["Constant Embedding"][i]
        static = result.throughput_gbps["Static Graph"][i]
        all_opts = result.throughput_gbps["All"][i]
        assert devirt > vanilla * 0.995
        assert constant > vanilla * 0.995
        assert static > max(devirt, constant)
        assert all_opts >= static * 0.98
        assert all_opts > vanilla * 1.1
    # Throughput is near-linear in frequency (the figure's fits).
    for name, (a, b, r2) in result.throughput_fits.items():
        assert b > 0, name
        assert r2 > 0.98, "%s: throughput not linear in f (R2=%.3f)" % (name, r2)
    # Median latency decreases with frequency for every variant.
    for name, series in result.median_latency_us.items():
        assert series[0] > series[-1], name
    # Optimized variants have lower latency than Vanilla at every frequency.
    for i in range(len(result.frequencies)):
        assert (
            result.median_latency_us["All"][i]
            < result.median_latency_us["Vanilla"][i]
        )


def format_table(result: Fig04Result) -> str:
    rows = []
    for name, _ in VARIANTS:
        for i, freq in enumerate(result.frequencies):
            rows.append(
                Row(
                    label=name,
                    values={
                        "freq_GHz": freq,
                        "gbps": result.throughput_gbps[name][i],
                        "p50_us": result.median_latency_us[name][i],
                    },
                )
            )
    table = format_rows(
        rows,
        ["freq_GHz", "gbps", "p50_us"],
        header="Figure 4: code optimizations, router, frequency sweep",
    )
    fit_lines = [
        "%s(f) = %.3f + %.2f f (R2=%.4f)" % (name, a, b, r2)
        for name, (a, b, r2) in result.throughput_fits.items()
    ]
    return table + "\n" + "\n".join(fit_lines)
