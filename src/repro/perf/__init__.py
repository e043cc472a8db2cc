"""Measurement harness: throughput, open-loop latency, sweeps, statistics.

This plays the role of the paper's NPF testbed orchestration: it drives
built binaries to steady state, applies the physical rate ceilings (link,
PCIe, NIC queue), simulates the open-loop latency experiments, and
computes the summary statistics the figures report.
"""

from repro.perf.loadlatency import LatencyResult, LoadLatencySimulator
from repro.perf.report import (
    classify,
    classify_qos,
    drop_breakdown,
    format_qos_report,
    format_report,
)
from repro.perf.runner import (
    ThroughputPoint,
    measure_sharded,
    measure_throughput,
)
from repro.perf.stats import linear_fit, percentile, quadratic_fit

__all__ = [
    "LatencyResult",
    "LoadLatencySimulator",
    "ThroughputPoint",
    "classify",
    "classify_qos",
    "drop_breakdown",
    "format_qos_report",
    "format_report",
    "linear_fit",
    "measure_sharded",
    "measure_throughput",
    "percentile",
    "quadratic_fit",
]
