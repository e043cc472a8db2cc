"""Integration tests for the experiment modules at smoke scale.

Larger runs go through ``python -m repro.experiments.report``; here each
experiment is exercised end-to-end on the ``SMOKE`` grid so the pipeline
(run -> check -> format_table) stays correct.
"""

import pytest

from repro.experiments import fig01, fig06, fig09, table1
from repro.experiments.common import (
    FULL,
    QUICK,
    SMOKE,
    Row,
    format_rows,
    improvement_pct,
)


class TestCommon:
    def test_scales_are_ordered(self):
        assert len(FULL.frequencies) > len(QUICK.frequencies)
        assert FULL.batches > QUICK.batches > SMOKE.batches

    def test_improvement_pct(self):
        assert improvement_pct(100, 150) == pytest.approx(50.0)
        assert improvement_pct(0, 10) == 0.0

    def test_format_rows(self):
        rows = [Row("a", {"x": 1.5, "note": "hi"}), Row("b", {"x": 2.0})]
        table = format_rows(rows, ["x", "note"], header="T")
        assert "T" in table
        assert "1.5" in table and "hi" in table
        assert "-" in table  # missing cell placeholder


class TestTable1:
    def test_run_check_format(self):
        result = table1.run(SMOKE)
        table1.check(result)
        table = table1.format_table(result)
        assert "Vanilla" in table and "Static Graph" in table
        assert set(result.metrics) == {
            "Vanilla", "Devirtualize", "Constant Embedding", "Static Graph", "All",
        }


class TestFig01:
    def test_run_check_format(self):
        result = fig01.run(SMOKE)
        fig01.check(result)
        table = fig01.format_table(result)
        assert "PacketMill" in table
        assert len(result.curves["Vanilla"]) == len(fig01.LOAD_FRACTIONS)

    def test_knee_visible(self):
        result = fig01.run(SMOKE)
        vanilla = result.curves["Vanilla"]
        assert vanilla[-1].p99_us > vanilla[0].p99_us * 3


class TestFig06:
    def test_run_check_format(self):
        result = fig06.run(SMOKE)
        fig06.check(result)
        table = fig06.format_table(result)
        assert "size_B" in table
        assert result.sizes == [64, 512, 1472]

    def test_gbps_grows_with_size(self):
        result = fig06.run(SMOKE)
        for name in ("Vanilla", "PacketMill"):
            assert result.gbps[name][-1] > result.gbps[name][0]


class TestFig09:
    def test_run_check_format(self):
        result = fig09.run(SMOKE)
        fig09.check(result)
        table = fig09.format_table(result)
        assert "kloads/100ms" in table
        # The 20-MB point is always appended for the threshold check.
        assert result.footprints_mb[-1] == 20.0
