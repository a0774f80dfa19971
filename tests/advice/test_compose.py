"""Tests for schema composition (Lemma 9.1) and composability checks."""

import pytest

from repro.advice import (
    AdviceError,
    FunctionSchema,
    check_composability,
    compose,
    compose_chain,
)
from repro.advice.schema import AdviceMap, DecodeResult, OracleSchema
from repro.graphs import cycle
from repro.lcl import vertex_coloring
from repro.local import LocalGraph


def _anchor_two_coloring():
    """Pi_1: 2-coloring via a single anchored bit (needs even cycles)."""

    def encode(graph):
        anchor = min(graph.nodes(), key=graph.id_of)
        return {v: ("1" if v == anchor else "") for v in graph.nodes()}

    def decode(graph, advice):
        anchor = next(v for v in graph.nodes() if advice.get(v))
        labeling = {
            v: 1 + int(graph.distance(anchor, v)) % 2 for v in graph.nodes()
        }
        return DecodeResult(labeling=labeling, rounds=graph.n // 2)

    return FunctionSchema("anchored-2col", encode, decode, vertex_coloring(2))


class _ShiftColoring(OracleSchema):
    """Pi_2 given Pi_1: re-label colors with an advice-chosen offset."""

    def __init__(self):
        self.name = "shift"
        self.problem = vertex_coloring(2)

    def encode(self, graph, oracle):
        anchor = min(graph.nodes(), key=graph.id_of)
        return {v: ("1" if v == anchor else "") for v in graph.nodes()}

    def decode(self, graph, advice, oracle):
        shift = 1  # the single advice bit says "swap the two colors"
        labeling = {v: 3 - oracle[v] for v in graph.nodes()}
        return DecodeResult(labeling=labeling, rounds=1)


class TestCompose:
    def test_composed_schema_solves(self):
        g = LocalGraph(cycle(12), seed=1)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        run = composed.run(g)
        assert run.valid is True

    def test_rounds_add(self):
        g = LocalGraph(cycle(12), seed=2)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        result = composed.decode(g, composed.encode(g))
        assert (
            result.rounds
            == result.detail["first_rounds"] + result.detail["second_rounds"]
        )

    def test_advice_merging_is_self_delimiting(self):
        g = LocalGraph(cycle(8), seed=3)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = composed.encode(g)
        holders = [v for v in g.nodes() if advice[v]]
        assert holders  # the anchor carries two packed parts
        # Non-holders carry nothing at all.
        assert all(advice[v] == "" for v in g.nodes() if v not in holders)

    def test_corrupt_packed_advice_raises(self):
        g = LocalGraph(cycle(8), seed=4)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = composed.encode(g)
        holder = next(v for v in g.nodes() if advice[v])
        broken = dict(advice)
        broken[holder] = broken[holder][:-1]  # truncate the packing
        with pytest.raises(AdviceError):
            composed.decode(g, broken)

    def test_compose_chain(self):
        g = LocalGraph(cycle(10), seed=5)
        chained = compose_chain(
            _anchor_two_coloring(), _ShiftColoring(), _ShiftColoring()
        )
        run = chained.run(g)
        assert run.valid is True
        assert "∘" in chained.name

    def test_composed_oracle_is_first_schemas_output(self):
        g = LocalGraph(cycle(8), seed=6)
        first = _anchor_two_coloring()
        composed = compose(first, _ShiftColoring())
        result = composed.decode(g, composed.encode(g))
        direct = first.decode(g, first.encode(g)).labeling
        assert result.detail["oracle_labeling"] == direct


class TestMutationRepair:
    def test_corrupt_packing_near_site_is_blanked(self):
        g = LocalGraph(cycle(10), seed=1)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = dict(composed.encode(g))
        holder = next(v for v in g.nodes() if advice[v])
        advice[holder] = advice[holder][:-1]  # truncate the packing
        patched = composed.repair_advice(g, advice, holder, 2)
        assert patched is not None
        assert patched[holder] == ""


class TestComposabilityCheck:
    def test_sparse_holders_pass(self):
        g = LocalGraph(cycle(40), ids={v: v + 1 for v in range(40)})
        advice = {v: "" for v in g.nodes()}
        for v in (0, 20):
            advice[v] = "11"
        assert check_composability(g, advice, alpha=5, gamma0=1, c=4.0, gamma=2)

    def test_crowded_holders_fail(self):
        g = LocalGraph(cycle(40))
        advice = {v: "" for v in g.nodes()}
        for v in (0, 1, 2):
            advice[v] = "1"
        assert not check_composability(
            g, advice, alpha=5, gamma0=1, c=2.0, gamma=2
        )

    def test_beta_bound_enforced(self):
        g = LocalGraph(cycle(40))
        advice = {v: "" for v in g.nodes()}
        advice[0] = "1" * 50  # way over c * alpha / gamma^3
        assert not check_composability(
            g, advice, alpha=5, gamma0=2, c=1.0, gamma=2
        )


class TestComposabilityWitness:
    """Declaring Lemma 5.1's parameters as a witness and sweeping it."""

    def test_orientation_witness_sweep(self):
        from repro.advice import ComposabilityWitness
        from repro.schemas import composable_orientation_schema

        witness = ComposabilityWitness(
            gamma0=2,
            A=lambda c, gamma: max(
                int(gamma**3 * 2 / max(c, 1e-9)), gamma**3 * 2
            ),
            T=lambda alpha, delta: max(2, delta) ** (12 * alpha),
        )
        c, gamma = 1.0, 2
        alpha = witness.A(c, gamma)
        schema = composable_orientation_schema(c, gamma, alpha)
        g = LocalGraph(cycle(40 * alpha), seed=7)
        advice = schema.encode(g)
        assert check_composability(
            g, advice, alpha=alpha, gamma0=witness.gamma0, c=c, gamma=gamma
        )
        # The declared T bound dwarfs the measured rounds, as it should.
        assert schema.decode(g, advice).rounds <= witness.T(alpha, 2)
