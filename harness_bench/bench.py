"""Harness benchmark: host time to produce the simulator's results.

The simulated numbers are the product and must not move; the host time
spent producing them is what this benchmark measures, end to end and
per layer.  Every workload runs in a fresh single-threaded child with
every ``REPRO_*`` variable removed (except those the workload pins) and
``PYTHONHASHSEED=0``; each child checks its simulated output against
``goldens.json``.

Commands (run from the repository root)::

    python3 harness_bench/bench.py run [--repeats 3] [--seed 101] [--out F]
    python3 harness_bench/bench.py run --update-goldens --seed 202
    python3 harness_bench/bench.py trace --out DIR
    python3 harness_bench/bench.py compare PARENT.json CHANGE.json
    python3 harness_bench/bench.py measure --workload W --seed N \\
        --seconds S --trace 0|1

``measure`` runs one workload for at least ``--seconds`` and prints one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from verdicts import error_verdict, quartiles, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if (ROOT / "src" / "repro").is_dir():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
else:  # a copy of the benchmark without the program: main() refuses
    workloads = None
GOLDENS = HERE / "goldens.json"
DEFAULT_OUT = HERE / "out"

#: End-to-end metrics: name -> (unit, better).  Bounds live in
#: BENCHMARK.json.  ``error_rate`` (failed / attempted runs, bound 0) is
#: reported by ``run`` and as ``failed``/``attempted`` by ``measure``.
END_TO_END = {
    "sim_pkts_per_s": ("pkt/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CHILD_TIMEOUT_S = 150


# -- child process ---------------------------------------------------------

class _TracerHooks:
    """Hides benchmark bookkeeping from the tracer and keeps spans of the
    build and the first ``span_steps`` measured steps."""

    def __init__(self, tracer, span_steps):
        self.tracer = tracer
        self.span_steps = span_steps

    def build(self, fn):
        self.tracer.recording = self.span_steps > 0
        try:
            return fn()
        finally:
            self.tracer.recording = False

    def step(self, index, fn):
        if index >= self.span_steps:
            return fn()
        self.tracer.recording = True
        self.tracer.step_id = index
        try:
            return fn()
        finally:
            self.tracer.recording = False
            self.tracer.step_id = None

    def exclude(self, seconds):
        self.tracer.exclude(seconds)


def child_main(args) -> int:
    """Run one workload in this process and print its result as JSON."""
    result = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "traced": args.traced}
    tracer = probe = None
    hooks = None
    try:
        if args.traced:
            from repro.exec import cache as exec_cache

            tracer = tracing.Tracer()
            probe = tracing.LayerProbe()
            probe.attach(tracer)
            tracer.calibrate()
            tracer.install()
            hooks = _TracerHooks(
                tracer, tracing.SPAN_STEPS if args.spans else 0)
            tracer.start()
        result.update(workloads.run(args.workload, args.seed, args.size,
                                    args.setup_builds, hooks))
        if tracer is not None:
            tracer.stop()
            if args.untraced_wall:
                tracer.fit(args.untraced_wall,
                           result["wall_s"] / result["raw"]["wall_s"])
            result["layers"] = tracing.layer_metrics(
                tracer, probe, result["sim"], exec_cache.stats())
            result["trace"] = {
                "wall_s": tracer.wall_s, "calls": tracer.calls,
                "overhead_s": tracer.overhead_s(),
                "inner_s": tracer.inner_s, "outer_s": tracer.outer_s,
                "fit_scale": tracer.fit_scale, "spans": len(tracer.spans),
            }
            if args.spans:
                tracer.write_chrome_trace(args.spans, {
                    "workload": args.workload, "seed": args.seed,
                    "size": args.size})
        result["ok"] = True
    except Exception as exc:  # the failure is the child's result
        traceback.print_exc()
        result.update(ok=False, error="%s: %s" % (type(exc).__name__, exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(result))
    return 0 if result["ok"] else 1


def child_env(workload, hashseed=0):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workloads.PINNED_ENV.get(workload, {}))
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def spawn(workload, seed, size, setup_builds, traced=False, spans=None,
          hashseed=0, untraced_wall=None):
    """Run one workload in a fresh child; returns its result dict."""
    cmd = [sys.executable, str(HERE / "bench.py"), "child",
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--setup-builds", str(setup_builds)]
    if traced:
        cmd.append("--traced")
    if untraced_wall:
        cmd += ["--untraced-wall", repr(untraced_wall)]
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=child_env(
            workload, hashseed), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "size": size,
                "ok": False, "error": "timed out", "started": started}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"workload": workload, "seed": seed, "size": size,
                  "ok": False, "error": "no result (exit %d): %s"
                  % (proc.returncode, proc.stderr.strip()[-500:])}
    if not result.get("ok") and proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    result["started"] = started
    return result


def traced_pair(workload, seed, size, goldens, spans=None):
    """The untraced run, then the traced run fitted to its wall time
    (scaled to the reference speed, so the two hosts' speeds cancel).

    Both are judged together, so the traced digest must equal the
    untraced one."""
    untraced = spawn(workload, seed, size, 0)
    traced = spawn(workload, seed, size, 0, traced=True, spans=spans,
                   untraced_wall=untraced.get("wall_s"))
    judge([untraced, traced], goldens)
    return untraced, traced


def repeat(names, seed, size, goldens, more):
    """Fresh children round-robin over ``names`` while ``more(results)``
    holds before a round; each result is judged as it lands."""
    setup_builds = workloads.SETUP_BUILDS if size == "full" else 1
    results = []
    while more(results):
        for name in names:
            result = spawn(name, seed, size, setup_builds)
            results.append(result)
            judge(results, goldens)
            print("%s seed=%s size=%s %s" % (
                name, seed, size,
                "ok step_ms_p50=%.4f (n=%d) wall_s=%.2f" % (
                    result["step_ms_p50"], result["step_samples"],
                    result["wall_s"]) if result.get("ok")
                else "FAILED: " + result.get("error", "?")), flush=True)
    return results


# -- goldens ---------------------------------------------------------------

def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def golden_check(result, goldens):
    """``"match"``, ``"mismatch"`` or ``"none"`` (no golden pinned)."""
    pinned = goldens.get(result["size"], {}).get(
        result["workload"], {}).get(str(result["seed"]))
    if pinned is None:
        return "none"
    return "match" if pinned == result.get("digest") else "mismatch"


def judge(results, goldens):
    """Mark each result failed when its digest disagrees with the goldens
    or with the other runs of the same workload, size and seed."""
    first = {}
    for result in results:
        if not result.get("ok"):
            continue
        check = golden_check(result, goldens)
        result["golden"] = check
        key = (result["workload"], result["size"], result["seed"])
        seen = first.setdefault(key, result["digest"])
        if check == "mismatch":
            result.update(ok=False, error="digest differs from goldens.json")
        elif seen != result["digest"]:
            result.update(ok=False, error="digest differs between runs")


# -- metrics ---------------------------------------------------------------

def summary(results):
    """Each end-to-end metric's median and quartiles over the successful
    runs of one workload, with the error rate and the digests seen."""
    ok = [r for r in results if r.get("ok")]
    entry = {"median": {}, "quartiles": {}}
    for name in END_TO_END:
        values = [r[name] for r in ok]
        if values:
            q1, med, q3 = quartiles(values)
            entry["median"][name] = med
            entry["quartiles"][name] = [q1, q3]
    entry["error_rate"] = (len(results) - len(ok)) / len(results)
    entry["digests"] = sorted({r["digest"] for r in ok})
    return entry


def end_to_end(results):
    """The ``measure`` metrics: each one's median (0 if no run passed)."""
    medians = summary(results)["median"]
    return {name: {"value": medians.get(name, 0.0), "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def per_layer(untraced, traced):
    values = dict(traced.get("layers", {}))
    if untraced.get("ok"):
        values["click.step_ms_p99"] = untraced["step_ms_p99"]
        values["click.step_samples"] = float(untraced["step_samples"])
        if traced.get("ok") and untraced["step_ms_p50"]:
            values["trace.overhead"] = (traced["step_ms_p50"]
                                        / untraced["step_ms_p50"])
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _ in tracing.PER_LAYER}


# -- commands --------------------------------------------------------------

def trace_workload(name, seed, goldens, spans=None):
    """The traced pair of one workload at quarter length and its
    per-layer metrics; prints the largest self-time shares."""
    untraced, traced = traced_pair(name, seed, "quarter", goldens, spans)
    metrics = per_layer(untraced, traced)
    if untraced.get("ok") and traced.get("ok"):
        shares = sorted(((metrics["%s.self_share" % layer]["value"], layer)
                         for layer in tracing.LAYERS), reverse=True)
        print("%-15s ok overhead %.2fx fit %.2f  %s" % (
            name, metrics["trace.overhead"]["value"],
            traced["trace"]["fit_scale"],
            "  ".join("%s %.0f%%" % (layer, share * 100)
                      for share, layer in shares[:5])), flush=True)
    else:
        print("%-15s FAILED: %s" % (name, untraced.get("error")
                                    or traced.get("error")), flush=True)
    return untraced, traced, metrics


def cmd_measure(args) -> int:
    goldens = load_goldens()
    if args.trace:
        untraced, traced, metrics = trace_workload(args.workload, args.seed,
                                                   goldens)
        results = [untraced, traced]
    else:
        start = time.perf_counter()
        results = repeat(
            [args.workload], args.seed, "full", goldens,
            lambda done: not done or (done[-1].get("ok") and
                                      time.perf_counter() - start
                                      < args.seconds))
        metrics = end_to_end(results)
    failed = sum(1 for r in results if not r.get("ok"))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _metadata():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


_KEEP = ("workload", "seed", "size", "ok", "error", "started", "digest",
         "golden", "step_samples", "step_ms_p99", "sim_packets", "raw",
         "host_speed") + tuple(END_TO_END)


def cmd_run(args) -> int:
    size = "smoke" if args.smoke else "full"
    names = list(workloads.WORKLOADS)
    goldens = load_goldens()
    out = Path(args.out)
    report = {"size": size, "seed": args.seed, "workloads": {}}
    if args.append and out.exists():
        report = json.loads(out.read_text())
        if (report["size"], report["seed"]) != (size, args.seed):
            sys.exit("cannot append: %s holds size=%s seed=%s"
                     % (out, report["size"], report["seed"]))
    report.update(_metadata())
    # Updating pins whatever this run produced, provided its repeats agree.
    fresh = repeat(names, args.seed, size,
                   {} if args.update_goldens else goldens,
                   lambda done: len(done) < args.repeats * len(names))
    for result in fresh:
        entry = report["workloads"].setdefault(result["workload"],
                                               {"samples": []})
        entry["samples"].append({k: result[k] for k in _KEEP if k in result})
    for name, entry in report["workloads"].items():
        entry.update(summary(entry["samples"]))
    failed = [r for r in fresh if not r.get("ok")]
    if args.update_goldens and not failed:
        for result in fresh:
            goldens.setdefault(size, {}).setdefault(
                result["workload"], {})[str(args.seed)] = result["digest"]
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
        print("goldens updated for seed %d -> %s" % (args.seed, GOLDENS))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    header = "%-15s" % "workload" + "".join(
        "%22s" % ("%s[%s]" % (n, u)) for n, (u, _) in END_TO_END.items())
    print(header + "%11s" % "error_rate")
    for name, entry in report["workloads"].items():
        print("%-15s" % name + "".join(
            "%22.5g" % entry["median"].get(n, float("nan"))
            for n in END_TO_END) + "%11.3g" % entry["error_rate"])
    print("-> %s" % out)
    return 1 if failed else 0


def cmd_trace(args) -> int:
    size = "quarter"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    goldens = load_goldens()
    report = {"size": size, "seed": args.seed, "workloads": {}}
    report.update(_metadata())
    failed = 0
    for name in workloads.WORKLOADS:
        untraced, traced, metrics = trace_workload(
            name, args.seed, goldens,
            spans=out_dir / ("%s.trace.json" % name))
        ok = bool(untraced.get("ok") and traced.get("ok"))
        failed += not ok
        report["workloads"][name] = {
            "ok": ok,
            "digest": traced.get("digest"),
            "untraced_digest": untraced.get("digest"),
            "traced_wall_s": traced.get("wall_s"),
            "trace": traced.get("trace"),
            "metrics": {k: v["value"] for k, v in metrics.items()},
        }
    (out_dir / "trace.json").write_text(json.dumps(report, indent=2) + "\n")
    print("-> %s" % out_dir)
    return 1 if failed else 0


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(parent, change, bounds):
    """Rows of ``(workload, {metric: (verdict, detail)})``."""
    rows = []
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        p_samples = parent["workloads"][name]["samples"]
        c_samples = change["workloads"][name]["samples"]
        pairs = list(zip(p_samples, c_samples))
        parent_first = sum(1 for p, c in pairs
                           if p.get("started", 0) < c.get("started", 0))
        alternated = abs(2 * parent_first - len(pairs)) <= 1
        cells = {}
        for metric, (_, better) in END_TO_END.items():
            p_vals = [p[metric] for p, c in pairs if p.get("ok")
                      and c.get("ok")]
            c_vals = [c[metric] for p, c in pairs if p.get("ok")
                      and c.get("ok")]
            if not p_vals:
                cells[metric] = ("unresolved", {"pairs": 0})
                continue
            cells[metric] = verdict(p_vals, c_vals, better, bounds[metric],
                                    alternated=alternated)
        cells["error_rate"] = error_verdict(
            sum(1 for p, _ in pairs if not p.get("ok")),
            sum(1 for _, c in pairs if not c.get("ok")), len(pairs))
        rows.append((name, cells))
    return rows


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare(parent, change, load_bounds())
    metrics = list(END_TO_END) + ["error_rate"]
    print("%-15s" % "workload" + "".join("%16s" % m for m in metrics))
    for name, cells in rows:
        print("%-15s" % name + "".join("%16s" % cells[m][0] for m in metrics))
        for metric in END_TO_END:
            detail = cells[metric][1]
            if detail.get("pairs"):
                p, c = detail["parent"], detail["change"]
                print("    %-14s parent %.6g [%.6g, %.6g]  change %.6g "
                      "[%.6g, %.6g]  wins %d/%d" % (
                          metric, p["median"], p["q1"], p["q3"],
                          c["median"], c["q1"], c["q3"], detail["wins"],
                          detail["pairs"]))
    worse = any(cells[m][0] == "worse" for _, cells in rows for m in cells)
    return 1 if worse else 0


def main(argv=None) -> int:
    if workloads is None:
        # Without the program there is nothing to measure: fail before
        # printing anything a caller could mistake for a result.
        sys.exit("harness_bench: no src/repro beside %s; run from a full "
                 "checkout" % HERE)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(workloads.WORKLOADS)

    p = sub.add_parser("measure", help="one workload, BENCHMARK.json protocol")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("run", help="every workload, round-robin repeats")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (seconds per workload)")
    p.add_argument("--out", default=str(DEFAULT_OUT / "run.json"))
    p.add_argument("--append", action="store_true",
                   help="add this run's repeats to an existing --out file")
    p.add_argument("--update-goldens", action="store_true",
                   help="pin this run's digests for --seed in goldens.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="traced run, per-layer metrics")
    p.add_argument("--out", required=True, help="directory for the traces")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="verdicts for PARENT vs CHANGE runs")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("child", help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--setup-builds", type=int, default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--untraced-wall", type=float,
                   help="scaled wall time of the same run untraced, to "
                        "fit the tracer's per-call cost")
    p.add_argument("--spans")
    p.set_defaults(func=child_main)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
