"""Composition of advice schemas (Lemma 9.1 of the paper).

Given (1) a schema solving ``Pi_1`` and (2) a schema solving ``Pi_2``
*assuming an oracle* for ``Pi_1``, composition yields a schema solving
``Pi_2`` outright: the encoder runs the ``Pi_1`` decode itself (decoders are
deterministic, so encoder and decoder reconstruct the same oracle), then
asks the second schema for advice relative to that oracle, and merges the
two advice maps with the self-delimiting packing of
:func:`repro.advice.bitstream.pack_parts`.

Composability in the formal sense of Definition 3.4 additionally constrains
*where* bits may sit (at most ``gamma_0`` holders per alpha-ball, each
holding ``<= c * alpha / gamma^3`` bits).  :func:`check_composability`
measures a concrete advice map against those constraints;
:class:`ComposabilityWitness` records a schema family's claimed parameters
so benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from ..local.graph import LocalGraph, Node
from .bitstream import CodecError, pack_parts, unpack_parts
from .schema import (
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
    OracleSchema,
)
from .sparsity import max_holders_in_ball


class ComposedSchema(AdviceSchema):
    """``compose(first, second)``: a ``Pi_2`` schema from a ``Pi_1`` schema
    and a ``Pi_2``-given-``Pi_1`` oracle schema."""

    def __init__(
        self,
        first: AdviceSchema,
        second: OracleSchema,
        name: Optional[str] = None,
    ) -> None:
        self.first = first
        self.second = second
        self.name = name or f"{second.name}∘{first.name}"
        self.problem = second.problem

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        """Contracts compose additively: the decoder runs both stages in
        sequence, and the encoder packs both payloads with the ``2b + 1``
        self-delimiting overhead of :func:`pack_parts` per part."""
        first = self.first.locality_contract(graph)
        second = self.second.locality_contract(graph)
        if first is None or second is None:
            return None
        return LocalityContract(
            radius=first.radius + second.radius,
            advice_bits=(2 * first.advice_bits + 1) + (2 * second.advice_bits + 1),
        )

    def encode(self, graph: LocalGraph) -> AdviceMap:
        advice1 = self.first.encode(graph)
        oracle = self.first.decode(graph, advice1).labeling
        advice2 = self.second.encode(graph, oracle)
        merged: AdviceMap = {}
        for v in graph.nodes():
            parts = [advice1.get(v, ""), advice2.get(v, "")]
            merged[v] = pack_parts(parts) if any(parts) else ""
        return merged

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        advice1: AdviceMap = {}
        advice2: AdviceMap = {}
        for v in graph.nodes():
            packed = advice.get(v, "")
            if not packed:
                advice1[v] = ""
                advice2[v] = ""
                continue
            try:
                part1, part2 = unpack_parts(packed, 2)
            except Exception as exc:  # CodecError and friends
                raise InvalidAdvice(
                    f"corrupt composed advice at {v!r}", node=v
                ) from exc
            advice1[v] = part1
            advice2[v] = part2
        result1 = self.first.decode(graph, advice1)
        result2 = self.second.decode(graph, advice2, result1.labeling)
        return DecodeResult(
            labeling=result2.labeling,
            rounds=result1.rounds + result2.rounds,
            detail={
                "first_rounds": result1.rounds,
                "second_rounds": result2.rounds,
                "oracle_labeling": result1.labeling,
            },
        )

    def _packed_ok(self, packed: str) -> bool:
        """Is ``packed`` parseable all the way down the composition?"""
        try:
            part1, _ = unpack_parts(packed, 2)
        except CodecError:
            return False
        inner = getattr(self.first, "_packed_ok", None)
        if inner is not None and part1:
            return bool(inner(part1))
        return True

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Blank unparseable packed strings near the failure.

        An empty string reads as "no parts at either level", which every
        layer of the composition accepts, so dropping a corrupt packing is
        always a safe (if lossy) local rewrite; missing anchors that
        result are caught by the verifier and healed downstream.
        """
        patched = dict(advice)
        changed = False
        for u in graph.ball(node, radius):
            packed = patched.get(u, "")
            if packed and not self._packed_ok(packed):
                patched[u] = ""
                changed = True
        return patched if changed else None


def compose(first: AdviceSchema, second: OracleSchema) -> ComposedSchema:
    """Lemma 9.1, binary form."""
    return ComposedSchema(first, second)


def compose_chain(first: AdviceSchema, *rest: OracleSchema) -> AdviceSchema:
    """Left fold of :func:`compose` over a pipeline of oracle schemas.

    ``compose_chain(s1, o2, o3)`` solves ``o3``'s problem using ``o2``'s
    solution, which in turn used ``s1``'s — the "schemas as subroutines"
    workflow of Section 1.8.
    """
    schema: AdviceSchema = first
    for oracle_schema in rest:
        schema = ComposedSchema(schema, oracle_schema)
    return schema


# ---------------------------------------------------------------------------
# Definition 3.4 measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposabilityWitness:
    """Claimed parameters of a composable schema family (Definition 3.4).

    ``gamma0``: the ball-holder bound; ``A(c, gamma)``: the minimum alpha;
    ``T(alpha, delta)``: the decode round bound.  Benchmarks instantiate a
    schema at several ``(c, gamma, alpha)`` triples and call
    :func:`check_composability` on the advice it produced.
    """

    gamma0: int
    A: Callable[[float, int], int]
    T: Callable[[int, int], int]


def check_composability(
    graph: LocalGraph,
    advice: Mapping[Node, str],
    alpha: int,
    gamma0: int,
    c: float,
    gamma: int,
) -> bool:
    """Does this advice map satisfy the Definition 3.4 constraints?

    * at most ``gamma0`` bit-holding nodes in every alpha-radius ball, and
    * every node holds at most ``beta <= c * alpha / gamma^3`` bits.
    """
    holders, _ = max_holders_in_ball(graph, advice, alpha)
    if holders > gamma0:
        return False
    beta_bound = c * alpha / (gamma**3)
    beta = max((len(advice.get(v, "")) for v in graph.nodes()), default=0)
    return beta <= beta_bound
