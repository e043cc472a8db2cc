"""Figure 11: framework comparison, forwarding @1.2 GHz, size sweep.

(a) DPDK applications: FastClick (Copying), l2fwd, PacketMill (X-Change),
l2fwd-xchg.  (b) Modular frameworks: VPP, FastClick, FastClick-Light
(Overlaying), BESS, PacketMill.  Claims: l2fwd-xchg beats l2fwd by up to
~59%; PacketMill outruns l2fwd despite being a full modular framework;
BESS ~ FastClick-Light > FastClick ~ VPP; PacketMill best overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exec.sweep import FrameworkPointSpec, run_points
from repro.experiments.common import QUICK, Row, Scale, format_rows
from repro.experiments.result import ExperimentResult, series_points

FREQ_GHZ = 1.2

FIG11A = ("FastClick (Copying)", "l2fwd", "PacketMill (X-Change)", "l2fwd-xchg")
FIG11B = (
    "VPP",
    "FastClick (Copying)",
    "FastClick-Light (Overlaying)",
    "BESS",
    "PacketMill (X-Change)",
)


@dataclass
class Fig11Result(ExperimentResult):
    sizes: List[int]
    gbps: Dict[str, List[float]]

    name = "fig11"

    def _params(self):
        return {"sizes": list(self.sizes)}

    def _points(self):
        return series_points("size", self.sizes, {"gbps": self.gbps})


#: Every framework fig11 measures, in its sweep order.
NAMES = tuple(sorted(set(FIG11A) | set(FIG11B)))


def point_specs(scale: Scale) -> List[FrameworkPointSpec]:
    """fig11's sweep: every framework at every size, size-major."""
    return [
        FrameworkPointSpec(name, size, FREQ_GHZ,
                           scale.batches, scale.warmup_batches, seed=3)
        for size in scale.packet_sizes
        for name in NAMES
    ]


def run(scale: Scale = QUICK) -> Fig11Result:
    sizes = list(scale.packet_sizes)
    gbps: Dict[str, List[float]] = {n: [] for n in NAMES}
    points = iter(run_points(point_specs(scale)))
    for size in sizes:
        for name in NAMES:
            gbps[name].append(next(points).gbps)
    return Fig11Result(sizes, gbps)


def check(result: Fig11Result) -> None:
    for i, size in enumerate(result.sizes):
        at = {name: series[i] for name, series in result.gbps.items()}
        capped = at["l2fwd-xchg"] > 95.0  # ceilings compress gaps at line rate
        if not capped:
            # (a) X-Change lifts both the framework and the sample app.
            assert at["PacketMill (X-Change)"] > at["FastClick (Copying)"]
            assert at["l2fwd-xchg"] > at["l2fwd"]
            # PacketMill keeps up with (or beats) the minimal l2fwd.
            assert at["PacketMill (X-Change)"] > at["l2fwd"] * 0.95
            # (b) overlaying frameworks beat copying frameworks.
            assert at["BESS"] > at["FastClick (Copying)"] * 0.99
            assert at["FastClick-Light (Overlaying)"] > at["FastClick (Copying)"] * 0.99
            # VPP performs like copying-based FastClick.
            ratio = at["VPP"] / at["FastClick (Copying)"]
            assert 0.7 < ratio < 1.3
            # PacketMill is the best modular framework.
            for other in FIG11B[:-1]:
                assert at["PacketMill (X-Change)"] >= at[other]
    # l2fwd-xchg's gain over l2fwd reaches tens of percent at small sizes.
    small_gain = result.gbps["l2fwd-xchg"][0] / result.gbps["l2fwd"][0]
    assert small_gain > 1.25, "l2fwd-xchg gain only %.2fx" % small_gain


def format_table(result: Fig11Result) -> str:
    rows = []
    for name, series in sorted(result.gbps.items()):
        for i, size in enumerate(result.sizes):
            rows.append(Row(label=name, values={"size_B": size, "gbps": series[i]}))
    return format_rows(
        rows,
        ["size_B", "gbps"],
        header="Figure 11: frameworks, forwarding @%.1f GHz" % FREQ_GHZ,
    )
