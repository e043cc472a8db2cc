"""Tests for the RSS imbalance + adaptive steering experiment."""

import pickle

import pytest

from repro.exec import cache as exec_cache
from repro.exec.sweep import run_points
from repro.experiments import rss_imbalance
from repro.experiments.common import QUICK
from repro.experiments.rss_imbalance import (
    HEAVY_SKEW,
    SMOKE_BACKLOG_CAP,
    SMOKE_PACKETS,
    ImbalanceResult,
    SteeringPoint,
)


@pytest.fixture(scope="module")
def result():
    return rss_imbalance.run(QUICK)


class TestExperiment:
    def test_claims_hold(self, result):
        rss_imbalance.check(result)

    def test_uniform_is_balanced_zipf_is_not(self, result):
        uniform = result.find("stationary", "static", None)
        heavy = result.find("stationary", "static", HEAVY_SKEW)
        assert uniform.imbalance < heavy.imbalance

    def test_steering_recovers_the_gap(self, result):
        for phase in rss_imbalance.PHASES:
            for variant in ("dynamic", "dispatch"):
                assert result.recovery(phase, variant) >= 0.5

    def test_static_runs_never_touch_steering_machinery(self, result):
        for point in result.points_list:
            if point.variant == "static":
                assert point.reta_moves == 0
                assert point.dispatched == 0

    def test_only_dispatch_variant_sprays(self, result):
        for phase in rss_imbalance.PHASES:
            assert result.find(phase, "dynamic", HEAVY_SKEW).dispatched == 0
            assert result.find(phase, "dispatch", HEAVY_SKEW).dispatched > 0

    def test_books_close_for_every_point(self, result):
        for point in result.points_list:
            delivered = sum(point.per_queue_steered)
            assert delivered + point.rss_dropped == point.offered
            assert sum(point.per_core_tx) == delivered

    def test_table_and_json_render(self, result):
        table = rss_imbalance.format_table(result)
        assert "stationary/static/uniform" in table
        assert "shifting/dispatch/zipf-1.6" in table
        doc = result.to_dict()
        assert doc["name"] == "rss_imbalance"
        assert len(doc["points"]) == len(result.points_list)
        assert doc["params"]["variants"] == list(rss_imbalance.VARIANTS)

    def test_find_unknown_point_raises(self, result):
        with pytest.raises(KeyError):
            result.find("stationary", "static", 9.9)


class TestSweepPoints:
    def test_spec_pickles_and_hashes(self):
        spec = rss_imbalance.point_specs(SMOKE_PACKETS, SMOKE_BACKLOG_CAP)[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)

    def test_serial_and_parallel_points_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP", raising=False)
        specs = rss_imbalance.point_specs(
            SMOKE_PACKETS, SMOKE_BACKLOG_CAP)[:2]
        exec_cache.reset_caches()
        serial = run_points(specs, jobs=1)
        exec_cache.reset_caches()
        parallel = run_points(specs, jobs=2)
        exec_cache.reset_caches()
        assert [p.record() for p in serial] == [
            p.record() for p in parallel]


def _point(phase, variant, skew, gbps, arrivals, drops,
           moves=0, dispatched=0):
    steered = [a - d for a, d in zip(arrivals, drops)]
    return SteeringPoint(
        phase=phase, variant=variant, skew=skew, gbps=gbps,
        per_queue_steered=steered, per_queue_dropped=drops,
        per_core_tx=steered, rss_dropped=sum(drops), offered=sum(arrivals),
        reta_moves=moves, migration_drains=0, dispatched=dispatched)


def _synthetic(**overrides):
    """A grid whose shape satisfies every claim; overrides break one."""
    flat = [0, 0, 0, 0]
    points = {
        "uniform": _point("stationary", "static", None, 40.0,
                          [1000] * 4, flat),
        "static": _point("stationary", "static", HEAVY_SKEW, 30.0,
                         [2500, 500, 500, 500], [2000, 0, 0, 0]),
        "dynamic": _point("stationary", "dynamic", HEAVY_SKEW, 36.0,
                          [1300, 900, 900, 900], [100, 0, 0, 0], moves=5),
        "dispatch": _point("stationary", "dispatch", HEAVY_SKEW, 38.0,
                           [1050, 1000, 950, 1000], flat,
                           moves=3, dispatched=500),
        "shift_static": _point("shifting", "static", HEAVY_SKEW, 31.0,
                               [2200, 600, 600, 600], [1500, 0, 0, 0]),
        "shift_dynamic": _point("shifting", "dynamic", HEAVY_SKEW, 36.0,
                                [1200, 950, 950, 900], [50, 0, 0, 0],
                                moves=4),
        "shift_dispatch": _point("shifting", "dispatch", HEAVY_SKEW, 38.5,
                                 [1010, 1000, 990, 1000], flat,
                                 moves=2, dispatched=400),
    }
    points.update(overrides)
    return ImbalanceResult(list(points.values()), n_packets=4000)


class TestCheckLogic:
    def test_accepts_the_expected_shape(self):
        rss_imbalance.check(_synthetic())

    def test_rejects_weak_recovery(self):
        weak = _point("stationary", "dynamic", HEAVY_SKEW, 31.0,
                      [1300, 900, 900, 900], [100, 0, 0, 0], moves=5)
        with pytest.raises(AssertionError, match="recovered only"):
            rss_imbalance.check(_synthetic(dynamic=weak))

    def test_rejects_steering_that_never_moved(self):
        idle = _point("stationary", "dynamic", HEAVY_SKEW, 36.0,
                      [1300, 900, 900, 900], [100, 0, 0, 0], moves=0)
        with pytest.raises(AssertionError, match="no RETA migrations"):
            rss_imbalance.check(_synthetic(dynamic=idle))

    def test_rejects_unrelieved_imbalance(self):
        skewed = _point("stationary", "dynamic", HEAVY_SKEW, 36.0,
                        [2600, 500, 450, 450], [100, 0, 0, 0], moves=5)
        with pytest.raises(AssertionError, match="imbalance"):
            rss_imbalance.check(_synthetic(dynamic=skewed))

    def test_rejects_cooked_books(self):
        cooked = _point("stationary", "dynamic", HEAVY_SKEW, 36.0,
                        [1300, 900, 900, 900], [100, 0, 0, 0], moves=5)
        cooked.offered += 7
        with pytest.raises(AssertionError):
            rss_imbalance.check(_synthetic(dynamic=cooked))

    def test_smoke_mode_relaxes_only_the_quantitative_floor(self):
        weak = _point("stationary", "dynamic", HEAVY_SKEW, 31.0,
                      [1300, 900, 900, 900], [100, 0, 0, 0], moves=5)
        result = _synthetic(dynamic=weak)
        result.smoke = True
        rss_imbalance.check(result)  # 10% recovery passes in smoke mode
        idle = _point("stationary", "dynamic", HEAVY_SKEW, 31.0,
                      [1300, 900, 900, 900], [100, 0, 0, 0], moves=0)
        result = _synthetic(dynamic=idle)
        result.smoke = True
        with pytest.raises(AssertionError, match="no RETA migrations"):
            rss_imbalance.check(result)
