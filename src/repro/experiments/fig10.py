"""Figure 10: multicore NFs -- NAT @2.3 GHz, 1-4 cores, RSS.

Claims: PacketMill's per-core gains carry over to multicore runs; both
systems scale with cores; PacketMill reaches the ~100-Gbps region with
fewer cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import nat_router
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

VARIANTS = {
    "Vanilla": BuildOptions.vanilla(),
    "PacketMill": BuildOptions.packetmill(),
}

CORE_COUNTS = (1, 2, 3, 4)


@dataclass
class Fig10Result(ExperimentResult):
    core_counts: List[int]
    gbps: Dict[str, List[float]]
    bound_by: Dict[str, List[str]]

    name = "fig10"

    def _params(self):
        return {"core_counts": list(self.core_counts)}

    def _points(self):
        return series_points("cores", self.core_counts, {
            "gbps": self.gbps,
            "bound_by": self.bound_by,
        })


def run(scale: Scale = QUICK) -> Fig10Result:
    gbps: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    bound: Dict[str, List[str]] = {n: [] for n in VARIANTS}
    config = nat_router()
    specs = [
        PointSpec(config, options, DUT_FREQ_GHZ,
                  max(60, scale.batches // 2), scale.warmup_batches // 2,
                  n_cores=cores)
        for options in VARIANTS.values()
        for cores in CORE_COUNTS
    ]
    points = iter(run_points(specs))
    for name in VARIANTS:
        for cores in CORE_COUNTS:
            point = next(points)
            gbps[name].append(point.gbps)
            bound[name].append(point.bound_by)
    return Fig10Result(list(CORE_COUNTS), gbps, bound)


def check(result: Fig10Result) -> None:
    for name in VARIANTS:
        series = result.gbps[name]
        # Throughput scales with cores (allowing ceiling flattening).
        for i in range(1, len(series)):
            assert series[i] >= series[i - 1] * 0.98
        # At least 2.5x from 1 to 4 cores unless a ceiling binds.
        if result.bound_by[name][-1] == "cpu":
            assert series[-1] > series[0] * 2.5
    for i, cores in enumerate(result.core_counts):
        vanilla = result.gbps["Vanilla"][i]
        packetmill = result.gbps["PacketMill"][i]
        if result.bound_by["PacketMill"][i] == "cpu":
            gain = (packetmill - vanilla) / vanilla
            assert gain > 0.10, "gain %.1f%% at %d cores" % (gain * 100, cores)
        else:
            assert packetmill >= vanilla * 0.999
    # PacketMill approaches the 100-Gbps region by 4 cores.
    assert result.gbps["PacketMill"][-1] > 85.0


def format_table(result: Fig10Result) -> str:
    rows = []
    for name in VARIANTS:
        for i, cores in enumerate(result.core_counts):
            rows.append(
                Row(
                    label=name,
                    values={
                        "cores": cores,
                        "gbps": result.gbps[name][i],
                        "bound": result.bound_by[name][i],
                    },
                )
            )
    return format_rows(
        rows,
        ["cores", "gbps", "bound"],
        header="Figure 10: NAT, multicore @%.1f GHz" % DUT_FREQ_GHZ,
    )
