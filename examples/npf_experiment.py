"""Orchestrate a grid experiment NPF-style and export CSV (paper §B).

Sweeps {build variant} x {frame size} with three randomized-seed repeats
per point, reports medians, and writes ``npf_results.csv`` -- the same
workflow the paper drives its testbed with via the Network Performance
Framework.  The grid runs on the sweep engine, so its points share the
exec caches and fan out over ``REPRO_JOBS`` worker processes.

Run:  python examples/npf_experiment.py
"""

import csv

from repro.core.nfs import forwarder
from repro.core.options import BuildOptions, MetadataModel
from repro.exec.sweep import PointSpec, TraceKey, run_points
from repro.perf.stats import percentile

VARIANTS = {
    "copying": BuildOptions.metadata(MetadataModel.COPYING),
    "overlaying": BuildOptions.metadata(MetadataModel.OVERLAYING),
    "xchange": BuildOptions.metadata(MetadataModel.XCHANGE),
}
FRAMES = (64, 512, 1024)
#: One seed per repeat: NPF's randomized environment against measurement bias.
SEEDS = [1000 + 17 * r for r in range(3)]
COLUMNS = ("variant", "frame", "gbps", "mpps")


def main():
    grid = [(variant, frame) for variant in VARIANTS for frame in FRAMES]
    points = run_points([
        PointSpec(forwarder(), VARIANTS[variant], 2.3, 120, 60,
                  trace=TraceKey("fixed", frame, seed=seed, per_port=False),
                  seed=seed)
        for variant, frame in grid for seed in SEEDS
    ])

    print("metadata models x frame size @2.3 GHz")
    print("  ".join("%12s" % c for c in COLUMNS))
    with open("npf_results.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for i, (variant, frame) in enumerate(grid):
            repeats = points[i * len(SEEDS):(i + 1) * len(SEEDS)]
            gbps = percentile([p.gbps for p in repeats], 50)
            mpps = percentile([p.mpps for p in repeats], 50)
            print("%12s  %12d  %12.3f  %12.3f" % (variant, frame, gbps, mpps))
            writer.writerow([variant, frame, gbps, mpps])
    print("\nwrote npf_results.csv")


if __name__ == "__main__":
    main()
