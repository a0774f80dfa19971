"""Tests for the public facade."""

import pytest

from repro import (
    LocalGraph,
    available_schemas,
    compress_edges,
    decompress_edges,
    make_schema,
    solve_with_advice,
)
from repro.graphs import cycle, random_edge_subset, torus
from repro.schemas import BalancedOrientationSchema


class TestRegistry:
    def test_available_schemas_sorted(self):
        names = available_schemas()
        assert names == sorted(names)
        assert "balanced-orientation" in names
        assert "3-coloring" in names

    def test_make_schema_unknown(self):
        with pytest.raises(KeyError, match="unknown schema"):
            make_schema("nope")

    def test_make_schema_with_kwargs(self):
        schema = make_schema("balanced-orientation", walk_limit=20)
        assert schema.walk_limit_for(LocalGraph(cycle(5))) == 20


class TestSolveWithAdvice:
    def test_by_name(self):
        run = solve_with_advice(
            "balanced-orientation", LocalGraph(torus(5, 5), seed=1)
        )
        assert run.valid is True

    def test_by_instance(self):
        schema = BalancedOrientationSchema(walk_limit=16)
        run = solve_with_advice(schema, LocalGraph(cycle(50), seed=2))
        assert run.valid is True

    def test_instance_plus_kwargs_rejected(self):
        schema = BalancedOrientationSchema()
        with pytest.raises(TypeError):
            solve_with_advice(schema, LocalGraph(cycle(10)), walk_limit=5)

    def test_lcl_subexp_requires_problem_kwarg(self):
        from repro.lcl import vertex_coloring

        run = solve_with_advice(
            "lcl-subexp",
            LocalGraph(cycle(60), seed=3),
            problem=vertex_coloring(3),
            x=6,
        )
        assert run.valid is True


class TestTelemetry:
    def test_solve_with_advice_populates_telemetry(self):
        run = solve_with_advice(
            "balanced-orientation", LocalGraph(cycle(40), seed=1)
        )
        telemetry = run.telemetry
        assert telemetry["beta"] == run.beta
        assert telemetry["rounds"] == run.rounds
        assert telemetry["n"] == 40
        assert telemetry["decide_calls"] == telemetry["views_gathered"]
        assert telemetry["advice_bits_per_node"]["count"] == 40

    def test_every_registered_schema_carries_core_telemetry(self):
        """Acceptance: beta/rounds/bits_per_node/decide_calls for every
        registered schema, via its demo default instance."""
        from repro.__main__ import run_one

        for name in available_schemas():
            run = run_one(name, 48, seed=3)
            telemetry = run.telemetry
            for key in ("beta", "rounds", "bits_per_node",
                        "views_gathered", "bfs_node_visits", "decide_calls",
                        "violations_total"):
                assert key in telemetry, f"{name}: telemetry missing {key}"
            assert telemetry["beta"] == run.beta
            assert telemetry["rounds"] == run.rounds
            assert telemetry["bits_per_node"] == pytest.approx(
                run.bits_per_node
            )
            assert telemetry["violations_total"] == 0

    def test_custom_registry_receives_metrics(self):
        from repro import MetricsRegistry

        registry = MetricsRegistry()
        solve_with_advice(
            "2-coloring", LocalGraph(cycle(36), seed=2), registry=registry
        )
        snap = registry.snapshot()
        assert snap["beta"] == 1.0
        assert snap["advice_bits_per_node"]["count"] == 36


class TestCompressionFacade:
    def test_roundtrip(self):
        g = LocalGraph(torus(6, 6), seed=4)
        subset = random_edge_subset(g.graph, 0.4, seed=5)
        compressed, compressor = compress_edges(g, subset)
        result = decompress_edges(g, compressed, compressor)
        canonical = {
            (u, v) if g.id_of(u) < g.id_of(v) else (v, u) for u, v in subset
        }
        assert result.edges == canonical
        assert result.rounds > 0
