"""ChurnRunner: bootstrap, local repair, classification, escalation."""

import pytest

from repro.advice.schema import AdviceError, InvalidAdvice
from repro.core.api import available_schemas, default_instance, make_schema
from repro.dynamic import ChurnRunner, Mutation, generate_mutation_plan
from repro.dynamic.runner import ChurnError
from repro.graphs import grid, path
from repro.local import LocalGraph
from repro.obs import MetricsRegistry
from repro.obs.churn import (
    RESOLVED_FAILED,
    RESOLVED_LOCAL,
    RESOLVED_NOOP,
    RESOLVED_REENCODE,
)
from repro.obs.robustness import BALL_RESOLVE, GLOBAL_RESOLVE
from repro.schemas.two_coloring import TwoColoringSchema


def _grid_runner(side=6, seed=0, **kwargs):
    graph = LocalGraph(grid(side, side), seed=seed)
    return ChurnRunner(TwoColoringSchema(), graph, **kwargs)


class TestBootstrap:
    def test_serving_state_starts_valid(self):
        runner = _grid_runner()
        assert runner.schema.check_solution(runner.graph, runner.labeling)
        assert set(runner.advice) == set(runner.graph.nodes())

    def test_bootstrap_failure_is_churn_error(self):
        class _Broken(TwoColoringSchema):
            def check_solution(self, graph, labeling):
                return False

        graph = LocalGraph(grid(4, 4), seed=0)
        with pytest.raises(ChurnError):
            ChurnRunner(_Broken(), graph)


class TestStream:
    def test_plan_stream_stays_valid_with_full_check(self):
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 50, seed=1)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        for m in plan.mutations:
            record = runner.apply(m, full_check=True)
            assert record.valid, f"invalid after {m.describe()}"
        assert runner.applied == 50
        # The serving pair decodes end to end.
        result = runner.schema.decode(runner.graph, runner.advice)
        assert runner.schema.check_solution(runner.graph, result.labeling)

    def test_stream_is_bit_reproducible(self):
        def one_run():
            graph = LocalGraph(grid(6, 6), seed=0)
            plan = generate_mutation_plan(graph, 40, seed=8)
            runner = ChurnRunner(TwoColoringSchema(), graph)
            return [runner.apply(m, full_check=True).as_dict() for m in plan.mutations]

        assert one_run() == one_run()

    def test_epoch_advances_with_each_topology_change(self):
        graph = LocalGraph(grid(5, 5), seed=0)
        plan = generate_mutation_plan(graph, 10, seed=4)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        epochs = [graph.epoch]
        for m in plan.mutations:
            runner.apply(m)
            epochs.append(graph.epoch)
        assert all(b > a for a, b in zip(epochs, epochs[1:]))

    def test_metrics_land_in_the_registry(self):
        registry = MetricsRegistry()
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 20, seed=2)
        runner = ChurnRunner(TwoColoringSchema(), graph, registry=registry)
        for m in plan.mutations:
            runner.apply(m)
        snap = registry.snapshot()
        assert snap["mutations_total"] == 20
        per_kind = sum(
            snap.get(f"mutations_{k.replace('-', '_')}_total", 0)
            for k in ("edge-insert", "edge-delete", "node-insert", "node-delete")
        )
        assert per_kind == 20


class TestClassification:
    def test_bridge_deletion_classifies_as_split(self):
        graph = LocalGraph(path(8), seed=0)
        runner = ChurnRunner(TwoColoringSchema(), graph, classify_bound=8)
        record = runner.apply(Mutation("edge-delete", u=3, v=4), full_check=True)
        assert record.classification == "split"
        assert record.valid

    def test_reconnecting_insert_classifies_as_join(self):
        graph = LocalGraph(path(8), seed=0)
        runner = ChurnRunner(TwoColoringSchema(), graph, classify_bound=8)
        runner.apply(Mutation("edge-delete", u=3, v=4), full_check=True)
        record = runner.apply(Mutation("edge-insert", u=3, v=4), full_check=True)
        assert record.classification == "join"
        assert record.valid

    def test_grid_edge_flip_is_absorbable(self):
        runner = _grid_runner(5)
        # Deleting a grid edge leaves a short alternative path around the face.
        record = runner.apply(Mutation("edge-delete", u=0, v=1), full_check=True)
        assert record.classification == "absorbable"
        assert record.valid


class TestEdgeLabeledChurn:
    @pytest.mark.parametrize(
        "name", ["splitting", "balanced-orientation", "delta-edge-coloring"]
    )
    def test_edge_reinsert_after_delete_stays_valid(self, name):
        # Each step changes the endpoints' port count, so their per-port
        # labels have the wrong arity until repaired; that must read as a
        # violation, not raise out of the region check.
        graph, kwargs = default_instance(name, 64, seed=0)
        runner = ChurnRunner(make_schema(name, **kwargs), graph)
        u = min(graph.nodes(), key=graph.id_of)
        v = min(graph.neighbors(u), key=graph.id_of)
        deleted = runner.apply(Mutation("edge-delete", u=u, v=v), full_check=True)
        inserted = runner.apply(Mutation("edge-insert", u=u, v=v), full_check=True)
        assert deleted.valid
        assert inserted.valid


class TestMutationHookContract:
    @pytest.mark.parametrize("name", available_schemas())
    def test_patch_on_clean_advice_decodes_valid(self, name):
        # A mutation hook may only offer bits it re-derives from the
        # labeling: on an unmutated instance with clean advice, any patch
        # it returns must still cold-decode to a valid labeling.
        graph, kwargs = default_instance(name, 64, seed=0)
        schema = make_schema(name, **kwargs)
        encoded = schema.encode(graph)
        advice = {v: encoded.get(v, "") for v in graph.nodes()}
        labeling = dict(schema.decode(graph, advice).labeling)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        for v in nodes[:: max(1, len(nodes) // 8)]:
            patched = schema.repair_advice_for_mutation(
                graph, advice, [v], 2, labeling
            )
            if patched is None:
                continue
            try:
                decoded = schema.decode(graph, dict(patched)).labeling
            except AdviceError as exc:
                pytest.fail(f"patch at {v!r} does not decode: {exc}")
            assert schema.check_solution(graph, decoded), f"patch at {v!r}"


class TestEscalation:
    def test_crippled_solver_falls_back_to_reencode(self):
        runner = _grid_runner(5, max_ball_radius=0, max_solver_steps=1)
        # A fresh node has no label; with the ball re-solve crippled the
        # runner must escalate to a full re-encode and still end valid.
        record = runner.apply(
            Mutation("node-insert", node=1000, neighbors=(0,)), full_check=True
        )
        assert record.resolved_by == RESOLVED_REENCODE
        assert record.valid
        assert not record.local
        assert any(
            a.kind == GLOBAL_RESOLVE and a.success for a in record.actions
        )

    def test_exhausted_reencode_budget_is_a_clean_failure(self):
        class _EncoderOffline(TwoColoringSchema):
            def __init__(self):
                super().__init__()
                self.offline = False

            def encode(self, graph):
                if self.offline:
                    raise InvalidAdvice("encoder offline")
                return super().encode(graph)

        graph = LocalGraph(grid(5, 5), seed=0)
        schema = _EncoderOffline()
        registry = MetricsRegistry()
        runner = ChurnRunner(
            schema,
            graph,
            max_ball_radius=0,
            max_solver_steps=1,
            reencode_budget=2,
            backoff_base=3,
            registry=registry,
        )
        schema.offline = True
        record = runner.apply(
            Mutation("node-insert", node=1000, neighbors=(0,)), full_check=True
        )
        assert record.resolved_by == RESOLVED_FAILED
        assert not record.valid
        failures = [a for a in record.actions if a.kind == GLOBAL_RESOLVE]
        assert len(failures) == 2
        assert not any(a.success for a in failures)
        assert "backoff 1" in failures[0].detail
        assert "backoff 3" in failures[1].detail
        assert registry.snapshot()["reencode_fallbacks_total"] == 1

    def test_budget_must_be_positive(self):
        graph = LocalGraph(grid(4, 4), seed=0)
        with pytest.raises(ValueError):
            ChurnRunner(TwoColoringSchema(), graph, reencode_budget=0)


class TestRecords:
    def test_record_dict_shape(self):
        runner = _grid_runner(5)
        record = runner.apply(Mutation("edge-delete", u=0, v=1), full_check=True)
        d = record.as_dict()
        assert set(d) == {
            "index",
            "mutation",
            "classification",
            "actions",
            "resolved_by",
            "local",
            "repair_radius",
            "valid",
        }
        assert d["resolved_by"] in (
            RESOLVED_NOOP,
            RESOLVED_LOCAL,
            RESOLVED_REENCODE,
            RESOLVED_FAILED,
        )

    def test_local_repairs_report_ball_or_patch_actions(self):
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 40, seed=6)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        saw_local = False
        for m in plan.mutations:
            record = runner.apply(m, full_check=True)
            if record.resolved_by == RESOLVED_LOCAL:
                saw_local = True
                assert record.actions
                assert record.repair_radius >= 0
        assert saw_local
