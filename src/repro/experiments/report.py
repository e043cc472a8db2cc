"""The one runner for the paper's experiments.

``python -m repro.experiments.report [NAME ...] [--scale smoke|quick|full]
[--compare-parallel] [--out MD] [--json PATH]`` runs each named
experiment (all of :data:`MODULES` by default) from cold caches, asserts
its claims with ``check(result)`` and renders one markdown report of the
``format_table(result)`` tables -- the data behind EXPERIMENTS.md.
``--compare-parallel`` reruns each one with ``REPRO_SWEEP=parallel``
after ``serial`` and exits 1 unless the ``to_json()`` payloads match;
``--json`` writes the timings, exec-cache hit rates and results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.exec import cache as exec_cache
from repro.exec.sweep import default_jobs
from repro.experiments.common import FULL, QUICK, SMOKE, Scale
from repro.net import checksum, trace

#: ``(label, module name)`` of every experiment, in report order.
MODULES = [
    ("Table 1", "table1"),
    ("Figure 1", "fig01"),
    ("Figure 4", "fig04"),
    ("Figure 5", "fig05"),
    ("Figure 6", "fig06"),
    ("Figure 7", "fig07"),
    ("Figure 8", "fig08"),
    ("Figure 9", "fig09"),
    ("Figure 10", "fig10"),
    ("Figure 11", "fig11"),
    ("QoS congestion", "qos_incast"),
    ("RSS imbalance", "rss_imbalance"),
    ("Ablations", "ablations"),
]

SCALES = {scale.name: scale for scale in (SMOKE, QUICK, FULL)}


class ParallelMismatch(RuntimeError):
    """A serial and a parallel run of one experiment disagreed."""


def select(names: Optional[Sequence[str]] = None) -> List[Tuple[str, str]]:
    """The registry entries for ``names`` (all when empty), in report
    order; an unknown name raises ``ValueError`` listing the known ones."""
    known = [name for _, name in MODULES]
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise ValueError("unknown experiment%s %s (known: %s)" % (
            "s" if len(unknown) > 1 else "", ", ".join(map(repr, unknown)),
            ", ".join(known)))
    return [entry for entry in MODULES if not names or entry[1] in names]


def _timed_cold_run(module, scale: Scale, sweep: Optional[str] = None):
    """``(module.run(scale), seconds)`` from cold caches, under
    ``REPRO_SWEEP=sweep`` when given."""
    exec_cache.reset_caches()
    trace.build_frame.cache_clear()
    checksum._cached_sum.cache_clear()
    saved = os.environ.get("REPRO_SWEEP")
    if sweep is not None:
        os.environ["REPRO_SWEEP"] = sweep
    try:
        started = time.perf_counter()
        result = module.run(scale)
        return result, time.perf_counter() - started
    finally:
        if saved is None:
            os.environ.pop("REPRO_SWEEP", None)
        else:
            os.environ["REPRO_SWEEP"] = saved


def _hit_rate(stats, layer: str) -> float:
    hits = stats.get("%s_hits" % layer, 0)
    misses = stats.get("%s_misses" % layer, 0)
    return round(hits / (hits + misses), 3) if hits + misses else 0.0


def _write(path: str, text: str, log) -> None:
    with open(path, "w") as handle:
        handle.write(text + "\n")
    log("wrote %s" % path)


def generate(scale: Scale = QUICK, names: Optional[Sequence[str]] = None,
             out_path: Optional[str] = None, json_path: Optional[str] = None,
             compare_parallel: bool = False, log=print) -> str:
    """Run and check the experiments; return (and optionally write) the
    report.  With ``compare_parallel``, raise :class:`ParallelMismatch`
    after writing both files if any serial/parallel pair differs."""
    sections = ["# PacketMill reproduction report", "",
                "Scale: %s.  Every section is one experiment; claims are"
                " machine-checked by the module's `check()`." % scale.name]
    records, mismatches = [], []
    for label, name in select(names):
        log("running %s (%s)..." % (label, name))
        module = importlib.import_module("repro.experiments." + name)
        result, seconds = _timed_cold_run(
            module, scale, "serial" if compare_parallel else None)
        stats = exec_cache.stats()
        module.check(result)
        record = {"name": name, "seconds": round(seconds, 3),
                  "build_hit_rate": _hit_rate(stats, "build"),
                  "trace_hit_rate": _hit_rate(stats, "trace")}
        timing = "%.0f s" % seconds
        if compare_parallel:
            parallel, parallel_s = _timed_cold_run(module, scale, "parallel")
            match = parallel.to_json() == result.to_json()
            if not match:
                mismatches.append(name)
            record.update(parallel_seconds=round(parallel_s, 3), match=match)
            timing = "serial %.1f s, parallel %.1f s, %s" % (
                seconds, parallel_s, "identical" if match else "MISMATCH")
        log("%s: checked OK (%s)" % (name, timing))
        record["result"] = result.to_dict()
        records.append(record)
        sections += ["", "## %s  (checked OK, %s)" % (label, timing), "",
                     "```", module.format_table(result), "```"]
    report = "\n".join(sections)
    if out_path:
        _write(out_path, report, log)
    if json_path:
        document = {"scale": scale.name, "cpus": os.cpu_count(),
                    "jobs": default_jobs(), "experiments": records}
        _write(json_path, json.dumps(document, indent=2, sort_keys=True), log)
    if mismatches:
        raise ParallelMismatch(
            "serial and parallel payloads differ for %s"
            % ", ".join(mismatches))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Run, check and tabulate the paper's experiments.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="experiments to run (default: all of %s)"
                        % ", ".join(name for _, name in MODULES))
    parser.add_argument("--scale", choices=SCALES, default=QUICK.name,
                        help="grid and run length (default: quick)")
    parser.add_argument("--compare-parallel", action="store_true",
                        help="also run in parallel; exit 1 on any mismatch")
    parser.add_argument("--out", metavar="MD",
                        help="write the report here (default: print it)")
    parser.add_argument("--json", metavar="PATH",
                        help="write timings, hit rates and results as JSON")
    args = parser.parse_args(argv)
    try:
        select(args.names)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = generate(SCALES[args.scale], args.names, args.out,
                          args.json, args.compare_parallel)
    except ParallelMismatch as exc:
        print("DETERMINISM FAILURE: %s" % exc, file=sys.stderr)
        return 1
    if not args.out:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
