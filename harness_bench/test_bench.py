"""Self-tests of the harness benchmark (smoke sizes, well under a minute).

Run with ``python -m pytest harness_bench/test_bench.py``; they are not
part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
import tracer
import verdicts
import workloads

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs():
    return {name: bench.spawn(name, 101, "smoke", 1)
            for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced_pairs():
    goldens = bench.load_goldens()
    return {name: bench.traced_pair(name, 101, "smoke", goldens)
            for name in ("fwd-64B", "nat-4core-zipf")}


def test_every_workload_emits_every_metric_with_its_unit(smoke_runs):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, result in smoke_runs.items():
        assert result["ok"], (name, result.get("error"))
        metrics = bench.end_to_end([result])
        assert {k: v["unit"] for k, v in metrics.items()} == units
        assert all(v["value"] > 0 for v in metrics.values()), name


def test_digests_match_the_goldens(smoke_runs):
    goldens = bench.load_goldens()
    for result in smoke_runs.values():
        assert bench.golden_check(result, goldens) == "match", result


def test_traced_and_untraced_digests_are_equal(traced_pairs):
    for untraced, traced in traced_pairs.values():
        assert untraced["ok"] and traced["ok"]
        assert traced["digest"] == untraced["digest"]


def test_layer_self_times_tile_the_traced_wall_time(traced_pairs):
    for _, traced in traced_pairs.values():
        layers = traced["layers"]
        total = sum(layers["%s.self_s" % layer] for layer in tracer.LAYERS)
        trace = traced["trace"]
        assert total + trace["overhead_s"] == pytest.approx(
            trace["wall_s"], rel=0.02)


def test_every_per_layer_metric_is_reported_with_its_unit(traced_pairs):
    metrics = bench.per_layer(*traced_pairs["fwd-64B"])
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (name, unit) for name, unit, _ in tracer.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert metrics["trace.overhead"]["value"] > 1


def test_digest_is_unchanged_under_another_hash_seed(smoke_runs):
    result = bench.spawn("nat-4core-zipf", 101, "smoke", 0, hashseed=1)
    assert result["ok"], result.get("error")
    assert result["digest"] == smoke_runs["nat-4core-zipf"]["digest"]


def test_every_wrapped_entry_point_resolves():
    names = {name for _, name, _, _, _ in tracer.resolve_all()}
    for specs in tracer.ENTRY_POINTS.values():
        for spec in specs:
            assert spec.partition(":")[2] in names
    assert any(name.endswith(".process") for name in names)


def test_the_fit_converts_the_untraced_time_to_this_runs_host_speed():
    traced = tracer.Tracer()
    traced.stats["f"] = [1000, 0.0, 0.0, 0]
    traced.inner_s = traced.outer_s = 1e-6
    traced.wall_s, traced.hidden_s = 3.0, 0.5
    # 1 s at the reference speed is 2 s on a host running at half of it,
    # so the wrappers account for 3 - 0.5 - 2 = 0.5 s over 1000 calls.
    assert traced.fit(1.0, 0.5) == pytest.approx(0.5 / (1000 * 2e-6))
    assert traced.inner_s + traced.outer_s == pytest.approx(0.5 / 1000)


def test_an_unresolvable_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.ENTRY_POINTS, "hw.tlb",
                        ["repro.hw.tlb:Tlb.no_such_method"])
    with pytest.raises(tracer.EntryPointError):
        tracer.resolve_all()


def test_measure_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "harness_bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "harness_bench/bench.py", "measure", "--workload",
         "fwd-64B", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- comparator on synthetic inputs ------------------------------------------

def _noisy(center, spread, n=10):
    return [center * (1 + spread * ((i * 7) % n - n / 2) / n)
            for i in range(n)]


def test_a_clear_gain_is_better():
    parent = _noisy(100.0, 0.02)
    change = [v * 0.8 for v in parent]
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "better"


def test_an_unchanged_metric_is_no_worse():
    parent = _noisy(100.0, 0.02)
    assert verdicts.verdict(parent, list(parent), "lower", 0.1)[0] \
        == "no worse"


def test_a_regression_beyond_the_bound_is_worse():
    parent = _noisy(100.0, 0.02)
    change = [v * 1.2 for v in parent]
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "worse"
    assert verdicts.verdict(parent, change, "higher", 0.1)[0] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = _noisy(100.0, 0.6)
    change = _noisy(104.0, 0.6)
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "unresolved"


def test_a_wide_spread_is_resolved_only_if_every_change_run_wins():
    parent = [100.0, 160.0, 110.0, 150.0, 120.0]
    change = [50.0, 90.0, 60.0, 80.0, 70.0]
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "no worse"
    change[0] = 105.0
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "unresolved"


def test_a_gain_needs_ten_alternated_pairs():
    parent = _noisy(100.0, 0.02, n=5)
    change = [v * 0.95 for v in parent]
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "no worse"
    parent, change = _noisy(100.0, 0.02), _noisy(95.0, 0.02)
    assert verdicts.verdict(parent, change, "lower", 0.1,
                            alternated=False)[0] == "no worse"
    assert verdicts.verdict(parent, change, "lower", 0.1)[0] == "better"


def test_compare_pairs_runs_and_checks_their_order():
    def run_file(values, starts):
        samples = [dict({m: v for m in bench.END_TO_END}, ok=True, started=s)
                   for v, s in zip(values, starts)]
        return {"workloads": {"fwd-64B": {"samples": samples}}}

    parent_vals = _noisy(100.0, 0.02)
    change_vals = [v * 0.8 for v in parent_vals]
    # Pair i ran parent first when i is even, change first when odd.
    p_starts = [2 * i + (i % 2) for i in range(10)]
    c_starts = [2 * i + 1 - (i % 2) for i in range(10)]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    (name, cells), = bench.compare(run_file(parent_vals, p_starts),
                                   run_file(change_vals, c_starts), bounds)
    assert name == "fwd-64B"
    assert cells["step_ms_p50"][0] == "better"
    assert cells["sim_pkts_per_s"][0] == "worse"
    assert cells["error_rate"][0] == "no worse"
    (_, cells), = bench.compare(run_file(parent_vals, range(10)),
                                run_file(change_vals, range(10, 20)), bounds)
    assert cells["step_ms_p50"][0] == "no worse"


def test_any_new_failure_is_worse():
    assert verdicts.error_verdict(0, 1, 10)[0] == "worse"
    assert verdicts.error_verdict(0, 0, 10)[0] == "no worse"
    assert verdicts.error_verdict(2, 1, 10)[0] == "better"
