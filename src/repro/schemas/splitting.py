"""Splittings and Delta-edge-coloring via composition (Section 5 extensions).

The *splitting* problem: 2-color the edges red/blue so that every node has
equally many red and blue incident edges (all degrees even).  The paper's
recipe (Section 3.5 / Corollary 5.5): given a node 2-coloring and a balanced
orientation, color red the edges oriented black→white and blue the edges
oriented white→black.  We realize it as an :class:`OracleSchema` consuming
the 2-coloring and compose it with :class:`TwoColoringSchema` through the
Lemma 9.1 machinery.

Recursive splitting yields a Delta-edge-coloring of bipartite Delta-regular
graphs when Delta is a power of two (Corollaries 5.7/5.8): splitting halves
the degree, so ``log2(Delta)`` levels of splitting leave perfect matchings —
the color classes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from ..advice.bitstream import CodecError, pack_parts, unpack_parts
from ..advice.compose import ComposedSchema, compose
from ..advice.schema import (
    AdviceError,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
    OracleSchema,
    locality_hints,
)
from ..lcl.catalog import BLUE, RED, edge_coloring, splitting
from ..lcl.problem import Labeling
from ..local.graph import LocalGraph, Node
from .orientation import BalancedOrientationSchema
from .two_coloring import TwoColoringSchema


def _subgraph_local(graph: LocalGraph, edges) -> LocalGraph:
    """A LocalGraph on the same nodes/IDs containing only ``edges``."""
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    sub.add_edges_from(edges)
    return LocalGraph(sub, ids=graph.ids())


class SplittingOracleSchema(OracleSchema):
    """Splitting given a 2-coloring oracle (``Pi_e`` of Section 3.5).

    The advice is the balanced-orientation advice (Lemma 5.1); the decoder
    orients the edges, then colors each edge red iff it leaves a color-1
    ("black") node.  With all degrees even, the strict balance at every node
    makes the red/blue counts equal.
    """

    def __init__(self, orientation: Optional[BalancedOrientationSchema] = None) -> None:
        self.name = "splitting-given-2-coloring"
        self.problem = splitting()
        self.orientation = orientation or BalancedOrientationSchema()

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        # The decoder is the orientation decoder plus one round in which
        # endpoints exchange incident edge colors; the advice is exactly
        # the orientation advice.
        inner = self.orientation.locality_contract(graph)
        if inner is None:
            return None
        return LocalityContract(
            radius=inner.radius + 1, advice_bits=inner.advice_bits
        )

    def encode(self, graph: LocalGraph, oracle: Mapping[Node, int]) -> AdviceMap:
        return self.orientation.encode(graph)

    def decode(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        oracle: Mapping[Node, int],
    ) -> DecodeResult:
        orient_result = self.orientation.decode(graph, advice)
        oriented = orient_result.detail["oriented_edges"]
        labeling: Dict[Node, Tuple[str, ...]] = {}
        for v in graph.nodes():
            row: List[str] = []
            for u in graph.neighbors(v):
                if (v, u) in oriented:
                    tail = v
                elif (u, v) in oriented:
                    tail = u
                else:
                    raise InvalidAdvice(
                        f"edge {{{v!r},{u!r}}} not oriented", node=v
                    )
                row.append(RED if oracle[tail] == 1 else BLUE)
            labeling[v] = tuple(row)
        # +1 round: each node exchanges the colors of its incident edges.
        return DecodeResult(labeling=labeling, rounds=orient_result.rounds + 1)


def splitting_schema(
    spacing: int = 8,
    orientation: Optional[BalancedOrientationSchema] = None,
) -> ComposedSchema:
    """The full splitting schema: ``Pi_e ∘ Pi_v`` (Lemma 9.1 in action)."""
    return compose(
        TwoColoringSchema(spacing=spacing), SplittingOracleSchema(orientation)
    )


# ---------------------------------------------------------------------------
# Delta-edge-coloring of bipartite Delta-regular graphs, Delta = 2^k
# ---------------------------------------------------------------------------


class DeltaEdgeColoringSchema(AdviceSchema):
    """Delta-edge-coloring by recursive splitting (Corollaries 5.7/5.8).

    Level ``i`` holds ``2^i`` edge classes, each inducing a
    ``Delta / 2^i``-regular bipartite subgraph; each class is split via the
    orientation advice for its subgraph.  After ``log2(Delta)`` levels the
    classes are perfect matchings: edge colors.  The bipartition advice is
    shared by all levels (a subgraph of a bipartite graph keeps its
    2-coloring), so the advice per node is one 2-coloring part plus
    ``Delta - 1`` orientation parts, packed self-delimitingly.
    """

    def __init__(
        self,
        spacing: int = 8,
        walk_limit: int = 16,
    ) -> None:
        self.name = "delta-edge-coloring"
        self.spacing = spacing
        self.walk_limit = walk_limit
        self.problem = None  # set per-graph: needs Delta

    def _levels(self, delta: int) -> int:
        if delta < 2 or delta & (delta - 1):
            raise AdviceError("Delta must be a power of 2 and >= 2")
        return delta.bit_length() - 1

    def _advice_bits_bound(self, graph: LocalGraph) -> int:
        # One packed 2-coloring part (1 bit -> 2*1+1) plus 2^levels - 1
        # orientation parts (2 bits each -> 2*2+1) per node.
        levels = self._levels(graph.max_degree)
        return 3 + (2**levels - 1) * 5

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: the shared 2-coloring decode plus, per level, one splitting
        # pass (orientation walk + 1 exchange round); classes at a level
        # run in parallel.  beta: the packed parts bound above.
        levels = self._levels(graph.max_degree)
        return LocalityContract(
            radius=(self.spacing - 1) + levels * (self.walk_limit + 2),
            advice_bits=self._advice_bits_bound(graph),
        )

    def _class_subgraphs(
        self, graph: LocalGraph, colors: Dict[Tuple[Node, Node], Tuple[int, ...]]
    ) -> Dict[Tuple[int, ...], List[Tuple[Node, Node]]]:
        classes: Dict[Tuple[int, ...], List[Tuple[Node, Node]]] = {}
        for edge, prefix in colors.items():
            classes.setdefault(prefix, []).append(edge)
        return classes

    @locality_hints(advice_bits="_advice_bits_bound")
    def encode(self, graph: LocalGraph) -> AdviceMap:
        delta = graph.max_degree
        levels = self._levels(delta)
        two_coloring_schema = TwoColoringSchema(spacing=self.spacing)
        advice_2col = two_coloring_schema.encode(graph)
        oracle = two_coloring_schema.decode(graph, advice_2col).labeling

        # Simulate the split pipeline, collecting orientation advice per class.
        colors: Dict[Tuple[Node, Node], Tuple[int, ...]] = {
            (u, v): () for u, v in graph.edges()
        }
        parts_per_node: Dict[Node, List[str]] = {
            v: [advice_2col.get(v, "")] for v in graph.nodes()
        }
        for level in range(levels):
            classes = self._class_subgraphs(graph, colors)
            for prefix in sorted(classes):
                sub = _subgraph_local(graph, classes[prefix])
                orientation = BalancedOrientationSchema(walk_limit=self.walk_limit)
                advice_or = orientation.encode(sub)
                for v in graph.nodes():
                    parts_per_node[v].append(advice_or.get(v, ""))
                split = SplittingOracleSchema(orientation).decode(
                    sub, advice_or, oracle
                )
                for (u, v) in classes[prefix]:
                    port = sub.port_of(u, v)
                    bit = 0 if split.labeling[u][port] == RED else 1
                    colors[(u, v)] = prefix + (bit,)

        merged: AdviceMap = {}
        for v in graph.nodes():
            parts = parts_per_node[v]
            merged[v] = pack_parts(parts) if any(parts) else ""
        return merged

    def repair_problem(self, graph: LocalGraph):
        return edge_coloring(graph.max_degree)

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Blank packed strings near the failure that no longer parse into
        the expected number of parts (missing anchors degrade to verifier
        violations, healed by ball re-solve)."""
        delta = graph.max_degree
        levels = self._levels(delta)
        total_parts = 1 + (2**levels - 1)
        patched = dict(advice)
        changed = False
        for u in graph.ball(node, radius):
            packed = patched.get(u, "")
            if not packed:
                continue
            try:
                unpack_parts(packed, total_parts)
            except CodecError:
                patched[u] = ""
                changed = True
        return patched if changed else None

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        delta = graph.max_degree
        levels = self._levels(delta)
        total_parts = 1 + (2**levels - 1)
        parts: Dict[Node, List[str]] = {}
        for v in graph.nodes():
            packed = advice.get(v, "")
            try:
                parts[v] = (
                    unpack_parts(packed, total_parts)
                    if packed
                    else [""] * total_parts
                )
            except CodecError as exc:
                raise InvalidAdvice(
                    f"corrupt packed advice at {v!r}", node=v
                ) from exc

        two_coloring_schema = TwoColoringSchema(spacing=self.spacing)
        result_2col = two_coloring_schema.decode(
            graph, {v: parts[v][0] for v in graph.nodes()}
        )
        oracle = result_2col.labeling
        rounds = result_2col.rounds

        colors: Dict[Tuple[Node, Node], Tuple[int, ...]] = {
            (u, v): () for u, v in graph.edges()
        }
        part_index = 1
        for level in range(levels):
            classes = self._class_subgraphs(graph, colors)
            level_rounds = 0
            for prefix in sorted(classes):
                sub = _subgraph_local(graph, classes[prefix])
                orientation = BalancedOrientationSchema(walk_limit=self.walk_limit)
                advice_or = {v: parts[v][part_index] for v in graph.nodes()}
                split = SplittingOracleSchema(orientation).decode(
                    sub, advice_or, oracle
                )
                level_rounds = max(level_rounds, split.rounds)
                for (u, v) in classes[prefix]:
                    port = sub.port_of(u, v)
                    bit = 0 if split.labeling[u][port] == RED else 1
                    colors[(u, v)] = prefix + (bit,)
                part_index += 1
            # Classes at the same level are split in parallel.
            rounds += level_rounds

        labeling: Dict[Node, Tuple[int, ...]] = {}
        for v in graph.nodes():
            row: List[int] = []
            for u in graph.neighbors(v):
                prefix = colors.get((v, u), colors.get((u, v)))
                row.append(1 + int("".join(map(str, prefix)), 2))
            labeling[v] = tuple(row)
        return DecodeResult(labeling=labeling, rounds=rounds)

    def check_solution(self, graph: LocalGraph, labeling: Labeling) -> bool:
        from ..lcl.verify import is_valid

        return is_valid(edge_coloring(graph.max_degree), graph, labeling)
