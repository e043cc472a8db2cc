"""Figure 1: p99 latency vs. throughput, router @2.3 GHz, one core.

Vanilla FastClick vs. full PacketMill under an open-loop offered-load
sweep with the campus trace.  The paper's claims: PacketMill shifts the
knee right (up to ~70% more throughput) and cuts tail latency (up to
~28%) at loads both can sustain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import (
    DUT_FREQ_GHZ,
    QUICK,
    Row,
    Scale,
    format_rows,
)
from repro.experiments.result import ExperimentResult
from repro.perf.loadlatency import LatencyResult, LoadLatencySimulator

VARIANTS = {
    "Vanilla": BuildOptions.vanilla(),
    "PacketMill": BuildOptions.packetmill(),
}

#: Offered loads as fractions of the *fastest* variant's capacity.
LOAD_FRACTIONS = (0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05)


@dataclass
class Fig01Result(ExperimentResult):
    service_ns: Dict[str, float]
    capacity_gbps: Dict[str, float]
    mean_frame: float
    curves: Dict[str, List[LatencyResult]]

    name = "fig01"

    def _params(self):
        return {
            "mean_frame": self.mean_frame,
            "service_ns": dict(self.service_ns),
            "capacity_gbps": dict(self.capacity_gbps),
        }

    def _points(self):
        points = []
        for variant, curve in self.curves.items():
            for sample in curve:
                points.append({
                    "variant": variant,
                    "offered_pps": sample.offered_pps,
                    "achieved_pps": sample.achieved_pps,
                    "drop_rate": sample.drop_rate,
                    "mean_us": sample.mean_us,
                    "p50_us": sample.p50_us,
                    "p99_us": sample.p99_us,
                })
        return points


def run(scale: Scale = QUICK) -> Fig01Result:
    service_ns = {}
    capacity_gbps = {}
    mean_frame = 981.0
    specs = [
        PointSpec(router(), options, DUT_FREQ_GHZ,
                  scale.batches, scale.warmup_batches)
        for options in VARIANTS.values()
    ]
    for name, point in zip(VARIANTS, run_points(specs)):
        service_ns[name] = 1e9 / point.pps
        capacity_gbps[name] = point.gbps
        mean_frame = point.mean_frame_len
    top_pps = max(1e9 / ns for ns in service_ns.values())
    curves = {}
    for name in VARIANTS:
        sim = LoadLatencySimulator(service_ns[name], ring_size=1024)
        loads = [top_pps * f for f in LOAD_FRACTIONS]
        curves[name] = sim.sweep(loads, n_packets=scale.latency_packets)
    return Fig01Result(service_ns, capacity_gbps, mean_frame, curves)


def check(result: Fig01Result) -> None:
    vanilla = result.capacity_gbps["Vanilla"]
    packetmill = result.capacity_gbps["PacketMill"]
    gain = (packetmill - vanilla) / vanilla
    assert gain > 0.15, "PacketMill throughput gain too small: %.1f%%" % (gain * 100)
    # At every load the vanilla system can sustain, PacketMill's p99 is
    # no worse; near vanilla's saturation it is strictly better.
    for v_res, p_res in zip(result.curves["Vanilla"], result.curves["PacketMill"]):
        if not v_res.saturated:
            assert p_res.p99_us <= v_res.p99_us * 1.05
    v_knee = [r for r in result.curves["Vanilla"] if r.saturated]
    p_knee = [r for r in result.curves["PacketMill"] if r.saturated]
    assert len(p_knee) <= len(v_knee), "PacketMill's knee did not shift right"


def format_table(result: Fig01Result) -> str:
    rows = []
    frame_bits = result.mean_frame * 8
    for name, curve in result.curves.items():
        for res in curve:
            rows.append(
                Row(
                    label=name,
                    values={
                        "offered_gbps": res.offered_pps * frame_bits / 1e9,
                        "achieved_gbps": res.achieved_pps * frame_bits / 1e9,
                        "p99_us": res.p99_us,
                        "drop_%": res.drop_rate * 100,
                    },
                )
            )
    return format_rows(
        rows,
        ["offered_gbps", "achieved_gbps", "p99_us", "drop_%"],
        header="Figure 1: 99th-percentile latency vs throughput (router @%.1f GHz)"
        % DUT_FREQ_GHZ,
    )
