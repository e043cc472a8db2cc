"""Figure 7: PacketMill's gains on synthetic memory/compute-intensive NFs.

A WorkPackage(S, N, W) element on the forwarding path @2.3 GHz; the
surface of throughput improvement over (S = memory footprint MB,
W = generated pseudo-random numbers), for N = 1 and N = 5 accesses per
packet.  Claims: PacketMill helps everywhere, but the gain shrinks as S,
W, or N grows (the NF becomes less I/O-bound), and N = 5 compresses both
Vanilla throughput and the improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.nfs import workpackage_forwarder
from repro.core.options import BuildOptions
from repro.exec.sweep import PointSpec, run_points
from repro.experiments.common import (
    DUT_FREQ_GHZ,
    QUICK,
    Row,
    Scale,
    format_rows,
    improvement_pct,
)
from repro.experiments.result import ExperimentResult

ACCESS_COUNTS = (1, 5)


@dataclass
class Fig07Result(ExperimentResult):
    footprints_mb: List[float]
    work_numbers: List[int]
    # (n, s_mb, w) -> (vanilla_gbps, improvement_pct)
    surface: Dict[Tuple[int, float, int], Tuple[float, float]]

    name = "fig07"

    def _params(self):
        return {
            "footprints_mb": list(self.footprints_mb),
            "work_numbers": list(self.work_numbers),
        }

    def _points(self):
        return [
            {
                "n_accesses": n,
                "footprint_mb": s_mb,
                "work": w,
                "vanilla_gbps": vanilla_gbps,
                "improvement_pct": gain_pct,
            }
            for (n, s_mb, w), (vanilla_gbps, gain_pct)
            in sorted(self.surface.items())
        ]


def run(scale: Scale = QUICK) -> Fig07Result:
    surface = {}
    grid = [
        (n, s_mb, w)
        for n in ACCESS_COUNTS
        for s_mb in scale.footprints_mb
        for w in scale.work_numbers
    ]
    specs = []
    for n, s_mb, w in grid:
        config = workpackage_forwarder(s_mb, n, w)
        specs.append(PointSpec(config, BuildOptions.vanilla(), DUT_FREQ_GHZ,
                               scale.batches, scale.warmup_batches))
        specs.append(PointSpec(config, BuildOptions.packetmill(), DUT_FREQ_GHZ,
                               scale.batches, scale.warmup_batches))
    points = iter(run_points(specs))
    for n, s_mb, w in grid:
        vanilla = next(points)
        packetmill = next(points)
        # Improvement of the CPU service rate: physical ceilings
        # (PCIe/link) would otherwise clip the surface where the
        # NF is light and PacketMill saturates the NIC.
        surface[(n, s_mb, w)] = (
            vanilla.gbps,
            improvement_pct(vanilla.cpu_pps, packetmill.cpu_pps),
        )
    return Fig07Result(list(scale.footprints_mb), list(scale.work_numbers), surface)


def check(result: Fig07Result) -> None:
    smin, smax = result.footprints_mb[0], result.footprints_mb[-1]
    wmin, wmax = result.work_numbers[0], result.work_numbers[-1]
    for n in ACCESS_COUNTS:
        # PacketMill always helps.
        for key, (vanilla_gbps, gain) in result.surface.items():
            if key[0] == n:
                assert gain > 2.0, "no gain at %s" % (key,)
        # Gains shrink along both axes (corner comparison).
        easy = result.surface[(n, smin, wmin)][1]
        hard = result.surface[(n, smax, wmax)][1]
        assert easy > hard, "gain did not shrink with S and W (N=%d)" % n
    # More accesses per packet -> lower Vanilla throughput and lower gain.
    v1, g1 = result.surface[(1, smax, wmin)]
    v5, g5 = result.surface[(5, smax, wmin)]
    assert v5 < v1
    assert g5 < g1 * 1.05


def format_table(result: Fig07Result) -> str:
    rows = []
    for (n, s_mb, w), (vanilla_gbps, gain) in sorted(result.surface.items()):
        rows.append(
            Row(
                label="N=%d S=%gMB W=%d" % (n, s_mb, w),
                values={"vanilla_gbps": vanilla_gbps, "improvement_%": gain},
            )
        )
    return format_rows(
        rows,
        ["vanilla_gbps", "improvement_%"],
        header="Figure 7: WorkPackage surface @%.1f GHz" % DUT_FREQ_GHZ,
    )
