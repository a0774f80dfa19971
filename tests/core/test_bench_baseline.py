"""Baseline regression diffing (benchmarks/common.py --baseline mode)."""

import copy
import json

from benchmarks.common import (
    DEFAULT_TOLERANCES,
    baseline_cli,
    diff_against_baseline,
    write_baseline,
)

REPORT = {
    "benchmark": "simulation_core",
    "params": {"rows": 24, "cols": 24, "radius": 2},
    "cases": [
        {
            "case": "grid-24x24",
            "seed_seconds": 1.5,
            "engine_stats": {
                "views_gathered": 576,
                "bfs_node_visits": 7012,
                "decide_calls": 576,
            },
            "distinct_view_classes": 576,
        },
        {
            "case": "cycle-576",
            "engine_stats": {
                "views_gathered": 576,
                "bfs_node_visits": 2880,
                "decide_calls": 576,
            },
            "distinct_view_classes": 60,
        },
    ],
}


class TestWriteBaseline:
    def test_pins_deterministic_metrics_only(self, tmp_path):
        path = str(tmp_path / "base.json")
        baseline = write_baseline(REPORT, path)
        with open(path) as fh:
            assert json.load(fh) == baseline
        assert baseline["params"] == REPORT["params"]
        grid_case = baseline["cases"][0]
        assert grid_case["metrics"]["views_gathered"] == 576
        assert grid_case["metrics"]["distinct_view_classes"] == 576
        # timings never make it into a baseline
        assert "seed_seconds" not in grid_case["metrics"]
        assert set(baseline["tolerances"]) == set(DEFAULT_TOLERANCES)


class TestDiffAgainstBaseline:
    def _baseline(self):
        return write_baseline(REPORT, "/dev/null")

    def test_clean_diff(self):
        assert diff_against_baseline(REPORT, self._baseline()) == []

    def test_counter_drift_is_regression(self):
        fresh = copy.deepcopy(REPORT)
        fresh["cases"][0]["engine_stats"]["bfs_node_visits"] += 1
        problems = diff_against_baseline(fresh, self._baseline())
        assert len(problems) == 1
        assert "bfs_node_visits" in problems[0]

    def test_relative_tolerance_allows_slack(self):
        baseline = write_baseline(
            REPORT, "/dev/null", {**DEFAULT_TOLERANCES, "bfs_node_visits": 0.01}
        )
        fresh = copy.deepcopy(REPORT)
        fresh["cases"][1]["engine_stats"]["bfs_node_visits"] = 2900
        assert diff_against_baseline(fresh, baseline) == []
        fresh["cases"][1]["engine_stats"]["bfs_node_visits"] = 2950
        assert diff_against_baseline(fresh, baseline)

    def test_missing_case_is_regression(self):
        fresh = copy.deepcopy(REPORT)
        fresh["cases"].pop()
        problems = diff_against_baseline(fresh, self._baseline())
        assert any("missing from report" in p for p in problems)

    def test_missing_metric_is_regression(self):
        fresh = copy.deepcopy(REPORT)
        del fresh["cases"][0]["engine_stats"]["decide_calls"]
        problems = diff_against_baseline(fresh, self._baseline())
        assert any("decide_calls" in p for p in problems)

    def test_params_mismatch_short_circuits(self):
        fresh = copy.deepcopy(REPORT)
        fresh["params"] = {"rows": 32, "cols": 32, "radius": 2}
        problems = diff_against_baseline(fresh, self._baseline())
        assert len(problems) == 1
        assert "params differ" in problems[0]


class TestBaselineCLI:
    def test_write_then_diff_round_trip(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        baseline_path = str(tmp_path / "base.json")
        with open(report_path, "w") as fh:
            json.dump(REPORT, fh)
        assert baseline_cli(
            ["--report", report_path, "--write-baseline", baseline_path]
        ) == 0
        assert baseline_cli(
            ["--report", report_path, "--baseline", baseline_path]
        ) == 0
        assert "baseline OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        baseline_path = str(tmp_path / "base.json")
        with open(report_path, "w") as fh:
            json.dump(REPORT, fh)
        baseline_cli(
            ["--report", report_path, "--write-baseline", baseline_path]
        )
        drifted = copy.deepcopy(REPORT)
        drifted["cases"][0]["engine_stats"]["views_gathered"] = 500
        with open(report_path, "w") as fh:
            json.dump(drifted, fh)
        assert baseline_cli(
            ["--report", report_path, "--baseline", baseline_path]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out
