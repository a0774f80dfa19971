"""Unit tests for the repro.perf counters/timers."""

import pytest

from repro.perf import SimStats, Timer


class TestSimStats:
    def test_defaults(self):
        stats = SimStats()
        assert stats.views_gathered == stats.bfs_node_visits == 0
        assert stats.decide_calls == 0
        assert stats.total_seconds == 0.0

    def test_phase_timer_accumulates(self):
        stats = SimStats()
        with stats.phase("gather"):
            pass
        first = stats.phase_seconds["gather"]
        with stats.phase("gather"):
            pass
        assert stats.phase_seconds["gather"] >= first
        assert stats.total_seconds == sum(stats.phase_seconds.values())

    def test_nested_phases_do_not_double_count(self):
        # Regression: a phase opened inside another phase used to count its
        # wall time twice in total_seconds (once for itself, once inside the
        # parent).  Self-time excludes child phases, so totals stay honest.
        stats = SimStats()
        with stats.phase("run"):
            with stats.phase("gather"):
                sum(range(20000))
            with stats.phase("decide"):
                sum(range(20000))
        run = stats.phase_seconds["run"]
        gather = stats.phase_seconds["gather"]
        decide = stats.phase_seconds["decide"]
        # cumulative: parent covers its children
        assert run >= gather + decide
        # self-time: parent excludes its children
        assert stats.phase_self_seconds["run"] == pytest.approx(
            run - gather - decide
        )
        # leaves have self == cumulative
        assert stats.phase_self_seconds["gather"] == gather
        # total is the sum of self-times == wall time of the outermost phase
        assert stats.total_seconds == pytest.approx(run)
        assert stats.total_seconds < run + gather + decide

    def test_nested_merge_keeps_both_views(self):
        a = SimStats()
        with a.phase("run"):
            with a.phase("gather"):
                pass
        b = SimStats()
        with b.phase("run"):
            pass
        a.merge(b)
        assert set(a.phase_seconds) == {"run", "gather"}
        assert a.phase_self_seconds["run"] == pytest.approx(
            a.phase_seconds["run"] - a.phase_seconds["gather"]
        )

    def test_merge(self):
        a = SimStats(views_gathered=2, bfs_node_visits=10)
        a.phase_seconds["gather"] = 0.5
        b = SimStats(views_gathered=3, decide_calls=4)
        b.phase_seconds["gather"] = 0.25
        b.phase_seconds["decide"] = 0.1
        a.merge(b)
        assert a.views_gathered == 5
        assert a.decide_calls == 4
        assert a.bfs_node_visits == 10
        assert a.phase_seconds == {"gather": 0.75, "decide": 0.1}

    def test_as_dict_is_json_ready(self):
        import json

        stats = SimStats(views_gathered=1)
        with stats.phase("decide"):
            pass
        payload = json.dumps(stats.as_dict())
        assert "views_gathered" in payload


class TestTimer:
    def test_records_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.seconds >= 0
