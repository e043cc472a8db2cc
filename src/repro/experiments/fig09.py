"""Figure 9: memory-footprint slice of the WorkPackage surface.

WorkPackage with N = 1 access/packet and W = 4, sweeping the accessed
memory S from sub-MB to 20 MB @2.3 GHz.  Reported per the paper's three
stacked panels: throughput, LLC-load-miss percentage, and LLC loads
(perf's per-100-ms view).  Claims: LLC loads saturate once the footprint
escapes L2 (paper eyeballs ~3 MB); the miss ratio rises once the
footprint exceeds the effective LLC share (~14 MB); throughput is
inversely related to LLC loads; PacketMill shows more loads *per window*
simply because it processes more packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import workpackage_forwarder
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import (
    DUT_FREQ_GHZ,
    QUICK,
    Row,
    Scale,
    format_rows,
)
from repro.experiments.result import ExperimentResult, series_points

N_ACCESSES = 1
W_NUMBERS = 4

VARIANTS = {
    "Vanilla": BuildOptions.vanilla(),
    "PacketMill": BuildOptions.packetmill(),
}


@dataclass
class Fig09Result(ExperimentResult):
    footprints_mb: List[float]
    gbps: Dict[str, List[float]]
    cpu_mpps: Dict[str, List[float]]
    miss_pct: Dict[str, List[float]]
    kloads_100ms: Dict[str, List[float]]

    name = "fig09"

    def _params(self):
        return {"footprints_mb": list(self.footprints_mb)}

    def _points(self):
        return series_points("footprint_mb", self.footprints_mb, {
            "gbps": self.gbps,
            "cpu_mpps": self.cpu_mpps,
            "miss_pct": self.miss_pct,
            "kloads_100ms": self.kloads_100ms,
        })


def run(scale: Scale = QUICK) -> Fig09Result:
    footprints = list(scale.footprints_mb)
    if footprints[-1] < 20.0:
        footprints = footprints + [20.0]
    gbps: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    cpu_mpps: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    miss: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    loads: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    specs = [
        PointSpec(workpackage_forwarder(s_mb, N_ACCESSES, W_NUMBERS), options,
                  DUT_FREQ_GHZ, scale.batches, scale.warmup_batches)
        for s_mb in footprints
        for options in VARIANTS.values()
    ]
    points = iter(run_points(specs))
    for s_mb in footprints:
        for name in VARIANTS:
            point = next(points)
            gbps[name].append(point.gbps)
            cpu_mpps[name].append(point.cpu_pps / 1e6)
            counters = point.run.counters
            llc_loads = counters["llc_loads"]
            miss_ratio = counters["llc_misses"] / llc_loads if llc_loads else 0.0
            miss[name].append(miss_ratio * 100)
            loads[name].append(point.counter_per_window("llc_loads") / 1e3)
    return Fig09Result(footprints, gbps, cpu_mpps, miss, loads)


def check(result: Fig09Result) -> None:
    foot = result.footprints_mb
    for name in VARIANTS:
        loads = result.kloads_100ms[name]
        cpu = result.cpu_mpps[name]
        miss = result.miss_pct[name]
        # The sustainable CPU rate decreases as the footprint grows
        # (throughput in the figure, before physical ceilings clamp it).
        assert cpu[0] > cpu[-1] * 1.05
        # LLC loads grow then saturate: the last doubling of footprint
        # grows loads by far less than the first doubling.
        first_growth = loads[1] - loads[0]
        last_growth = loads[-1] - loads[-2]
        assert last_growth < max(first_growth, 1.0) * 1.5
        # The miss ratio rises once the footprint exceeds the effective
        # LLC share (~14 MB).
        at_8 = min(m for s, m in zip(foot, miss) if s <= 8.0)
        at_20 = max(m for s, m in zip(foot, miss) if s >= 16.0)
        assert at_20 > at_8 + 5.0, "%s: no miss rise past the threshold" % name
    # PacketMill (static graph) has no dispatch-miss noise: its misses are
    # the WorkPackage's own, near zero below the threshold.
    pm_small = [m for s, m in zip(foot, result.miss_pct["PacketMill"]) if s <= 8.0]
    assert max(pm_small) < 2.0, "misses before the LLC threshold: %s" % pm_small
    # Once the WorkPackage's own loads dominate (S >= 2 MB), PacketMill
    # shows at least comparable loads per window -- it processes more
    # packets -- and it always delivers more throughput.  (At tiny S,
    # Vanilla's count is inflated by dynamic-dispatch loads instead.)
    for i in range(len(foot)):
        if foot[i] >= 2.0:
            assert result.kloads_100ms["PacketMill"][i] >= result.kloads_100ms["Vanilla"][i] * 0.85
        assert result.gbps["PacketMill"][i] > result.gbps["Vanilla"][i]


def format_table(result: Fig09Result) -> str:
    rows = []
    for name in VARIANTS:
        for i, s_mb in enumerate(result.footprints_mb):
            rows.append(
                Row(
                    label=name,
                    values={
                        "S_MB": s_mb,
                        "gbps": result.gbps[name][i],
                        "cpu_mpps": result.cpu_mpps[name][i],
                        "miss_%": result.miss_pct[name][i],
                        "kloads/100ms": result.kloads_100ms[name][i],
                    },
                )
            )
    return format_rows(
        rows,
        ["S_MB", "gbps", "cpu_mpps", "miss_%", "kloads/100ms"],
        header="Figure 9: memory-footprint slice (N=1, W=4) @%.1f GHz" % DUT_FREQ_GHZ,
    )
