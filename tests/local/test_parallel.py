"""The parallel decode pool: purity gate, fallback, and exact agreement.

The pool may only run when the linter certifies the decision function
pure; otherwise it must *warn and fall back* — never produce an answer a
serial engine would not.  When it runs, outputs must be bit-identical to
the scalar engine and the merged counters must match the serial ones,
for deciders marked order-invariant or not.
"""

import random

import pytest

from repro.graphs import cycle, grid
from repro.local import LocalGraph, run_view_algorithm
from repro.local.parallel import (
    chunk_ranges,
    run_view_algorithm_parallel,
)
from repro.local.views import mark_order_invariant
from repro.schemas.two_coloring import TwoColoringSchema, _nearest_anchor_color


def _graph_and_advice(spacing=4, n=48):
    graph = LocalGraph(cycle(n), seed=7)
    schema = TwoColoringSchema(spacing=spacing)
    return graph, schema.encode(graph), spacing - 1


def _anchor_color(view):
    return _nearest_anchor_color(view)


@mark_order_invariant
def _marked_anchor_color(view):
    return _nearest_anchor_color(view)


def _impure_decider(view):
    return random.random()


class TestPurityGate:
    def test_certified_decider_runs_in_pool(self):
        graph, advice, radius = _graph_and_advice()
        result = run_view_algorithm_parallel(
            graph,
            radius,
            _nearest_anchor_color,
            advice=advice,
            pool_size=2,
        )
        assert result is not None
        assert result.stats.engine == "parallel"
        assert result.stats.pool_size == 2
        serial = run_view_algorithm(
            graph, radius, _nearest_anchor_color, advice=advice, engine="scalar"
        )
        assert result.outputs == serial.outputs

    def test_impure_decider_refused_with_warning(self):
        graph, advice, radius = _graph_and_advice()
        with pytest.warns(RuntimeWarning, match="not\\s+certified pure"):
            result = run_view_algorithm_parallel(
                graph, radius, _impure_decider, advice=advice, pool_size=2
            )
        assert result is None

    def test_unpicklable_state_refused_with_warning(self):
        graph, advice, radius = _graph_and_advice()
        # pure by static analysis, but closes over nothing picklable-hostile
        # itself — poison the advice instead (a generator is unpicklable).
        poisoned = dict(advice)
        poisoned[next(iter(poisoned))] = (c for c in "01")
        with pytest.warns(RuntimeWarning, match="does not pickle"):
            result = run_view_algorithm_parallel(
                graph,
                radius,
                _nearest_anchor_color,
                advice=poisoned,
                pool_size=2,
            )
        assert result is None

    def test_engine_parallel_falls_back_to_serial_outputs(self):
        """engine="parallel" with an impure decider still yields answers."""
        graph, advice, radius = _graph_and_advice()
        with pytest.warns(RuntimeWarning):
            run = run_view_algorithm(
                graph, radius, _impure_decider, advice=advice, engine="parallel"
            )
        assert run.stats.engine in ("scalar", "vectorized")
        assert len(run.outputs) == graph.n


class TestPoolAgreement:
    @pytest.mark.parametrize("marked", [False, True])
    def test_outputs_and_counters(self, marked):
        graph = LocalGraph(grid(8, 8), seed=2)
        schema = TwoColoringSchema(spacing=5)
        advice = schema.encode(graph)
        decide = _marked_anchor_color if marked else _anchor_color
        serial = run_view_algorithm(
            graph, 4, decide, advice=advice, engine="scalar"
        )
        pooled = run_view_algorithm_parallel(
            graph, 4, decide, advice=advice, pool_size=2
        )
        assert pooled is not None
        assert pooled.outputs == serial.outputs
        # work counters are exact and engine-independent, marked or not
        assert pooled.stats.views_gathered == serial.stats.views_gathered
        assert pooled.stats.bfs_node_visits == serial.stats.bfs_node_visits
        assert pooled.stats.decide_calls == serial.stats.decide_calls == graph.n

    def test_marked_decider_through_dispatch(self):
        graph, advice, radius = _graph_and_advice(spacing=6, n=60)
        decide = mark_order_invariant(_nearest_anchor_color)
        serial = run_view_algorithm(
            graph, radius, decide, advice=advice, engine="scalar"
        )
        pooled = run_view_algorithm(
            graph, radius, decide, advice=advice, engine="parallel", pool_size=2
        )
        assert pooled.outputs == serial.outputs
        assert pooled.stats.engine == "parallel"


class TestChunking:
    def test_chunk_ranges_partition(self):
        for n in (0, 1, 5, 64, 101):
            for chunks in (1, 2, 7, 200):
                ranges = chunk_ranges(n, chunks)
                covered = [i for lo, hi in ranges for i in range(lo, hi)]
                assert covered == list(range(n))
                assert all(hi > lo for lo, hi in ranges)

    def test_empty_graph(self):
        import networkx as nx

        graph = LocalGraph(nx.Graph(), seed=0)
        result = run_view_algorithm_parallel(
            graph, 2, _nearest_anchor_color, advice={}, pool_size=2
        )
        assert result is not None
        assert result.outputs == {}
