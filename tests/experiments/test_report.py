"""Tests for the one experiment runner, ``repro.experiments.report``."""

import importlib
import inspect
import json
import os
import sys
import types

import pytest

from repro.experiments import report
from repro.experiments.common import SMOKE
from repro.experiments.report import MODULES, generate, main, select


class TestReportGenerator:
    def test_covers_every_table_and_figure(self):
        labels = [label for label, _ in MODULES]
        assert labels == [
            "Table 1", "Figure 1", "Figure 4", "Figure 5", "Figure 6",
            "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
            "QoS congestion", "RSS imbalance", "Ablations",
        ]

    def test_generate_single_section(self, tmp_path):
        out = os.path.join(tmp_path, "report.md")
        logs = []
        text = generate(SMOKE, ["table1"], out_path=out, log=logs.append)
        assert "## Table 1" in text
        assert "checked OK" in text
        assert "Vanilla" in text
        assert os.path.exists(out)
        assert any("wrote" in line for line in logs)

    def test_report_is_markdown_with_code_blocks(self):
        text = generate(SMOKE, ["table1"], log=lambda *_: None)
        assert text.startswith("# PacketMill reproduction report")
        assert text.count("```") % 2 == 0


@pytest.mark.parametrize("name", [name for _, name in MODULES])
def test_every_registered_experiment_has_the_protocol(name):
    module = importlib.import_module("repro.experiments." + name)
    assert "scale" in inspect.signature(module.run).parameters
    assert callable(module.check) and callable(module.format_table)


class TestSelection:
    def test_names_match_exactly(self):
        assert select(["fig01"]) == [("Figure 1", "fig01")]
        assert select(["fig10", "table1"]) == [
            ("Table 1", "table1"), ("Figure 10", "fig10")]

    @pytest.mark.parametrize("name", ["fig1", "fig12"])
    def test_unknown_name_is_refused_with_the_known_ones(self, name):
        with pytest.raises(ValueError, match="unknown experiment '%s' "
                           r"\(known: table1, fig01, .*ablations\)" % name):
            generate(SMOKE, [name], log=lambda *_: None)
        with pytest.raises(SystemExit, match="2"):
            main([name])


def _fake_experiment(monkeypatch, payload):
    """Register ``fake``, whose result is ``payload(scale)``."""
    module = types.ModuleType("repro.experiments.fake")

    def run(scale):
        value = payload(scale)
        return types.SimpleNamespace(to_json=lambda: json.dumps(value),
                                     to_dict=lambda: {"points": [value]})

    module.run = run
    module.check = lambda result: None
    module.format_table = lambda result: "fake table"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(report, "MODULES", [("Fake", "fake")])


class TestCompareParallel:
    def test_mismatch_exits_non_zero(self, monkeypatch, capsys):
        _fake_experiment(monkeypatch, lambda scale: os.environ["REPRO_SWEEP"])
        assert main(["--scale", "smoke", "--compare-parallel"]) == 1
        assert "fake" in capsys.readouterr().err

    def test_match_records_both_times(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SWEEP", raising=False)
        _fake_experiment(monkeypatch, lambda scale: scale.name)
        path = os.path.join(tmp_path, "bench.json")
        assert main(["fake", "--scale", "smoke", "--compare-parallel",
                     "--json", path, "--out", os.devnull]) == 0
        assert "REPRO_SWEEP" not in os.environ
        (record,) = json.load(open(path))["experiments"]
        assert record["match"] is True
        assert {"seconds", "parallel_seconds", "build_hit_rate",
                "trace_hit_rate"} <= set(record)
        assert record["result"]["points"] == ["smoke"]
