"""Figure 6: packet-size sweep, router @2.3 GHz, Vanilla vs. PacketMill.

Throughput (Gbps) and packet rate (Mpps) across fixed frame sizes.
Claims: the pps improvement is consistent across sizes; Gbps climbs to
the line/PCIe ceiling with size; past ~800 B the achieved pps is set by
the physical ceilings (and therefore falls with frame size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, TraceKey, run_points
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


@dataclass
class Fig06Result(ExperimentResult):
    sizes: List[int]
    gbps: Dict[str, List[float]]
    mpps: Dict[str, List[float]]
    bound_by: Dict[str, List[str]]

    name = "fig06"

    def _params(self):
        return {"sizes": list(self.sizes)}

    def _points(self):
        return series_points("size", self.sizes, {
            "gbps": self.gbps,
            "mpps": self.mpps,
            "bound_by": self.bound_by,
        })


def run(scale: Scale = QUICK) -> Fig06Result:
    sizes = list(scale.packet_sizes)
    gbps: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    mpps: Dict[str, List[float]] = {n: [] for n in VARIANTS}
    bound: Dict[str, List[str]] = {n: [] for n in VARIANTS}
    config = router()
    specs = [
        PointSpec(config, options, DUT_FREQ_GHZ,
                  scale.batches, scale.warmup_batches,
                  trace=TraceKey("fixed", size))
        for size in sizes
        for options in VARIANTS.values()
    ]
    points = iter(run_points(specs))
    for size in sizes:
        for name in VARIANTS:
            point = next(points)
            gbps[name].append(point.gbps)
            mpps[name].append(point.mpps)
            bound[name].append(point.bound_by)
    return Fig06Result(sizes, gbps, mpps, bound)


def check(result: Fig06Result) -> None:
    for i, size in enumerate(result.sizes):
        vanilla_pps = result.mpps["Vanilla"][i]
        pm_pps = result.mpps["PacketMill"][i]
        if result.bound_by["PacketMill"][i] == "cpu":
            # CPU-bound region: consistent pps gain across sizes.
            gain = pm_pps / vanilla_pps
            assert 1.1 < gain < 2.2, "gain %.2f at %d B" % (gain, size)
        else:
            assert pm_pps >= vanilla_pps * 0.999
    # Throughput grows with frame size up to the physical ceiling.
    pm_gbps = result.gbps["PacketMill"]
    assert pm_gbps[-1] > pm_gbps[0] * 3
    assert pm_gbps[-1] > 85.0, "large frames should approach line rate"
    # Once the ceiling binds, pps falls as frames grow (the paper's
    # PCIe observation past ~800 B).
    capped = [
        result.mpps["PacketMill"][i]
        for i in range(len(result.sizes))
        if result.bound_by["PacketMill"][i] != "cpu"
    ]
    assert all(a >= b for a, b in zip(capped, capped[1:]))


def format_table(result: Fig06Result) -> str:
    rows = []
    for name in VARIANTS:
        for i, size in enumerate(result.sizes):
            rows.append(
                Row(
                    label=name,
                    values={
                        "size_B": size,
                        "gbps": result.gbps[name][i],
                        "mpps": result.mpps[name][i],
                        "bound": result.bound_by[name][i],
                    },
                )
            )
    return format_rows(
        rows,
        ["size_B", "gbps", "mpps", "bound"],
        header="Figure 6: packet-size sweep, router @%.1f GHz" % DUT_FREQ_GHZ,
    )
