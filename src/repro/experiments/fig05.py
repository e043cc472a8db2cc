"""Figure 5: metadata-management models, forwarder, frequency sweep.

(a) one NIC / one core; (b) two NICs / one core.  All three models use
LTO; code optimizations are off so metadata management is isolated.
Claims: X-Change > Overlaying > Copying; X-Change (and eventually
Overlaying) plateau on the single-queue NIC ceiling; only X-Change pushes
one core past 100 Gbps with two NICs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.nfs import forwarder, forwarder_two_nics
from repro.core.options import BuildOptions, MetadataModel
from repro.exec.sweep import PointSpec, TraceKey, run_points
from repro.experiments.common import QUICK, Row, Scale, format_rows
from repro.experiments.result import ExperimentResult, series_points

MODELS = (MetadataModel.COPYING, MetadataModel.OVERLAYING, MetadataModel.XCHANGE)
FRAME_LEN = 1024


@dataclass
class Fig05Result(ExperimentResult):
    frequencies: List[float]
    one_nic_gbps: Dict[str, List[float]]
    two_nic_gbps: Dict[str, List[float]]
    one_nic_bound: Dict[str, List[str]]

    name = "fig05"

    def _params(self):
        return {"frequencies": list(self.frequencies)}

    def _points(self):
        return series_points("freq_ghz", self.frequencies, {
            "one_nic_gbps": self.one_nic_gbps,
            "two_nic_gbps": self.two_nic_gbps,
            "one_nic_bound": self.one_nic_bound,
        })


def run(scale: Scale = QUICK) -> Fig05Result:
    freqs = list(scale.frequencies)
    one_nic: Dict[str, List[float]] = {}
    two_nic: Dict[str, List[float]] = {}
    bounds: Dict[str, List[str]] = {}
    trace = TraceKey("fixed", FRAME_LEN)
    specs = []
    for model in MODELS:
        options = BuildOptions.metadata(model)
        for freq in freqs:
            specs.append(PointSpec(forwarder(), options, freq,
                                   scale.batches, scale.warmup_batches,
                                   trace=trace))
            specs.append(PointSpec(forwarder_two_nics(), options, freq,
                                   scale.batches, scale.warmup_batches,
                                   trace=trace))
    points = iter(run_points(specs))
    for model in MODELS:
        one_series, two_series, bound_series = [], [], []
        for freq in freqs:
            point = next(points)
            one_series.append(point.gbps)
            bound_series.append(point.bound_by)
            point2 = next(points)
            two_series.append(point2.gbps)
        one_nic[model.value] = one_series
        two_nic[model.value] = two_series
        bounds[model.value] = bound_series
    return Fig05Result(freqs, one_nic, two_nic, bounds)


def check(result: Fig05Result) -> None:
    for i, freq in enumerate(result.frequencies):
        copying = result.one_nic_gbps["copying"][i]
        overlaying = result.one_nic_gbps["overlaying"][i]
        xchange = result.one_nic_gbps["xchange"][i]
        assert xchange >= overlaying >= copying, "ordering broken at %.1f GHz" % freq
    # X-Change plateaus: its top-frequency point is bounded by the NIC
    # queue, not the CPU (the paper's ~2.2 GHz saturation).
    assert result.one_nic_bound["xchange"][-1] != "cpu"
    # Copying never saturates the NIC within the sweep.
    assert result.one_nic_bound["copying"][-1] == "cpu"
    # Two NICs: only X-Change exceeds 100 Gbps with one core.
    top = {name: series[-1] for name, series in result.two_nic_gbps.items()}
    assert top["xchange"] > 100.0, "X-Change 2-NIC top %.1f <= 100" % top["xchange"]
    assert top["copying"] < 100.0
    # An inefficient model costs >10 Gbps (the paper's closing claim).
    assert top["xchange"] - top["copying"] > 10.0


def format_table(result: Fig05Result) -> str:
    rows = []
    for name in result.one_nic_gbps:
        for i, freq in enumerate(result.frequencies):
            rows.append(
                Row(
                    label=name,
                    values={
                        "freq_GHz": freq,
                        "1nic_gbps": result.one_nic_gbps[name][i],
                        "2nic_gbps": result.two_nic_gbps[name][i],
                        "bound": result.one_nic_bound[name][i],
                    },
                )
            )
    return format_rows(
        rows,
        ["freq_GHz", "1nic_gbps", "2nic_gbps", "bound"],
        header="Figure 5: metadata models, forwarder, %d-B frames" % FRAME_LEN,
    )
