"""Wall-clock benchmark of the sweep engine over the QUICK figure suite.

Runs each experiment once with the sweep engine forced serial and once
forced parallel (ProcessPoolExecutor fan-out), verifies the two produce
byte-identical ``ExperimentResult.to_json()`` payloads, and writes the
timings, speedups, and execution-cache hit rates (``BENCH_PR4.json``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full QUICK suite
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # CI subset, tiny scale

Exits non-zero when any pair mismatches, so CI can gate on determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exec import cache as exec_cache
from repro.exec.sweep import default_jobs
from repro.experiments import (  # noqa: E402
    ablations,
    fig01,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    table1,
)
from repro.experiments.common import QUICK, Scale
from repro.net import checksum, trace

SMOKE_SCALE = Scale(
    name="smoke",
    warmup_batches=40,
    batches=80,
    frequencies=(1.2, 2.0, 3.0),
    packet_sizes=(64, 512, 1472),
    latency_packets=20_000,
    footprints_mb=(1.0, 8.0, 16.0),
    work_numbers=(0, 20),
)

FULL_EXPERIMENTS = (fig01, fig04, fig05, fig06, fig07, fig08, fig09, fig10,
                    fig11, table1)
SMOKE_EXPERIMENTS = (fig01, fig06, fig10)


def _reset_caches() -> None:
    """Drop every memoized artifact so each timed run starts cold."""
    exec_cache.reset_caches()
    trace.build_frame.cache_clear()
    checksum._cached_sum.cache_clear()


def _timed_run(mod, scale: Scale, mode: str):
    os.environ["REPRO_SWEEP"] = mode
    _reset_caches()
    start = time.perf_counter()
    payload = mod.run(scale).to_json()
    elapsed = time.perf_counter() - start
    stats = exec_cache.stats()
    return payload, elapsed, stats


def _hit_rate(stats, layer: str) -> float:
    hits = stats.get("%s_hits" % layer, 0)
    misses = stats.get("%s_misses" % layer, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset (fig01/fig06/fig10) at a tiny scale")
    parser.add_argument("--output", default="BENCH_PR4.json",
                        help="where to write the report (default: "
                             "BENCH_PR4.json)")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else QUICK
    experiments = SMOKE_EXPERIMENTS if args.smoke else FULL_EXPERIMENTS

    jobs = default_jobs()
    report = {
        "suite": "smoke" if args.smoke else "full",
        "scale": scale.name,
        "cpus": os.cpu_count(),
        "jobs": jobs,
        # Worker provenance: "parallel" timings from a single-worker box
        # (workers_used == 1) measure pool overhead, not fan-out -- mark
        # them so speedup numbers are never compared across capture kinds.
        "workers_used": jobs,
        "parallel_capture": jobs > 1,
        "experiments": {},
    }
    mismatches = []
    total_serial = total_parallel = 0.0

    for mod in experiments:
        name = mod.__name__.rsplit(".", 1)[-1]
        serial_payload, serial_s, serial_stats = _timed_run(mod, scale, "serial")
        parallel_payload, parallel_s, _ = _timed_run(mod, scale, "parallel")
        match = serial_payload == parallel_payload
        if not match:
            mismatches.append(name)
        total_serial += serial_s
        total_parallel += parallel_s
        report["experiments"][name] = {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
            "match": match,
            "build_hit_rate": round(_hit_rate(serial_stats, "build"), 3),
            "trace_hit_rate": round(_hit_rate(serial_stats, "trace"), 3),
        }
        print("%-8s serial %6.1fs  parallel %6.1fs  speedup %5.2fx  %s"
              % (name, serial_s, parallel_s,
                 serial_s / parallel_s if parallel_s else 0.0,
                 "ok" if match else "MISMATCH"))

    if not args.smoke:
        os.environ["REPRO_SWEEP"] = "parallel"
        _reset_caches()
        start = time.perf_counter()
        for abl_name, (run_fn, check_fn) in ablations.ALL.items():
            check_fn(run_fn())
        report["ablations_s"] = round(time.perf_counter() - start, 3)

    report["total_serial_s"] = round(total_serial, 3)
    report["total_parallel_s"] = round(total_parallel, 3)
    report["total_speedup"] = (
        round(total_serial / total_parallel, 3) if total_parallel else None
    )
    report["mismatches"] = mismatches

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print("total: serial %.1fs, parallel %.1fs (%.2fx) -> %s"
          % (total_serial, total_parallel,
             total_serial / total_parallel if total_parallel else 0.0,
             args.output))
    if mismatches:
        print("DETERMINISM FAILURE: serial != parallel for %s" % mismatches,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
