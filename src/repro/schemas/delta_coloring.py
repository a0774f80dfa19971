"""Delta-coloring of Delta-colorable graphs with advice (Section 6).

The paper's Theorem 6.1 pipeline has three stages, which we compose with
the Lemma 9.1 machinery:

1. **O(Delta^2)-coloring with advice** (Lemma 6.3,
   :class:`ClusterColoringSchema`): cluster the graph around an
   ``(r, r)``-ruling set, properly color the *cluster graph*, store each
   cluster's color as advice at its center, let centers broadcast a local
   ``Delta + 1``-coloring of their cluster, and squeeze the product palette
   down with Linial's one-round reductions.

2. **Reduction to Delta + 1 colors** (:class:`DeltaPlusOneReduction`, an
   advice-free oracle schema).  The paper cites the
   ``O(sqrt(Delta log Delta))``-round (deg+1)-list-coloring algorithms
   (Theorem 6.8); we substitute the classical color-class scheduling whose
   *output* contract is identical and whose round count is ``O(Delta^2)``
   (recorded in EXPERIMENTS.md — both are functions of Delta only).

3. **Delta + 1 -> Delta repair** (Lemmas 6.6–6.10,
   :class:`DeltaRepairSchema`): the nodes of color ``Delta + 1`` form an
   independent set; each is repaired by recoloring a small ball around it
   (the paper shifts colors along an augmenting path to a flexible vertex —
   a special case of a ball recoloring; our encoder searches the ball
   exactly, growing its radius until a proper ``Delta``-recoloring exists,
   and stores the recolored ball at the repaired node).

All advice here is variable-length and sparse; bit-holders are ruling-set
centers and repaired nodes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from ..advice.bitstream import bits_to_int, int_to_bits
from ..advice.compose import compose_chain
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
from ..algorithms.coloring import (
    assert_proper,
    is_proper,
    linial_reduction_step,
    num_colors,
    reduce_to_delta_plus_one,
)
from ..algorithms.decomposition import color_cluster_graph, voronoi_clustering
from ..algorithms.ruling_set import greedy_ruling_set
from ..lcl.catalog import vertex_coloring
from ..lcl.problem import Labeling
from ..lcl.solve import solve_exact
from ..lcl.verify import is_valid
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph, Node


def _color_width(delta: int) -> int:
    """Bits needed for a color in ``1..delta``."""
    return max(1, (delta - 1).bit_length() if delta > 1 else 1)


# ---------------------------------------------------------------------------
# Stage 1: O(Delta^2)-coloring with advice (Lemma 6.3)
# ---------------------------------------------------------------------------


class ClusterColoringSchema(AdviceSchema):
    """An ``O(Delta^2)``-coloring from clustering advice.

    The encoder picks a greedy ``(spacing, spacing - 1)``-ruling set as
    cluster centers (the paper's ``(r, r)``-ruling set with
    ``r = 100 alpha^2 log Delta``; ``spacing`` is our explicit knob),
    Voronoi-assigns nodes, colors the cluster graph greedily, and stores
    each cluster's color (binary, self-delimited by starting with ``1``) at
    the center.  The decoder re-derives the clustering from the advice
    holders, combines ``(cluster color, local greedy color)`` into a proper
    product coloring, and applies Linial reduction steps until the palette
    stops shrinking — landing at ``O(Delta^2)`` colors.
    """

    def __init__(self, spacing: int = 6, max_linial_rounds: int = 16) -> None:
        if spacing < 2:
            raise AdviceError("spacing must be >= 2")
        self.name = "cluster-coloring"
        self.problem = None  # properness checked via check_solution
        self.spacing = spacing
        self.max_linial_rounds = max_linial_rounds

    def _advice_bits_bound(self, graph: LocalGraph) -> int:
        # A center stores its cluster-graph color in binary; greedy cluster
        # coloring never exceeds the number of centers, itself at most n.
        return max(1, graph.n.bit_length())

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: max over the tracker's charges — cluster gather/broadcast
        # (2 * (spacing - 1)) versus Voronoi plus the capped Linial phase.
        return LocalityContract(
            radius=max(
                2 * (self.spacing - 1),
                self.spacing - 1 + self.max_linial_rounds,
            ),
            advice_bits=self._advice_bits_bound(graph),
        )

    @locality_hints(advice_bits="_advice_bits_bound")
    def encode(self, graph: LocalGraph) -> AdviceMap:
        centers = greedy_ruling_set(graph, self.spacing)
        clustering = voronoi_clustering(graph, centers)
        colors = color_cluster_graph(clustering)
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        for center in centers:
            advice[center] = int_to_bits(colors[center])
        return advice

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        centers = sorted(
            (v for v in graph.nodes() if advice.get(v, "")), key=graph.id_of
        )
        if not centers and graph.n > 0:
            raise InvalidAdvice(
                "no cluster centers in advice",
                node=min(graph.nodes(), key=graph.id_of),
            )
        # Every node identifies its cluster like the encoder's Voronoi rule;
        # this costs spacing - 1 rounds (centers dominate at that radius).
        tracker.charge(self.spacing - 1)
        clustering = voronoi_clustering(graph, centers)
        delta = graph.max_degree
        block = delta + 2

        labeling: Dict[Node, int] = {}
        for center in centers:
            cluster_color = bits_to_int(advice[center])
            members = sorted(clustering.members(center), key=graph.id_of)
            member_set = set(members)
            local: Dict[Node, int] = {}
            for v in members:
                taken = {
                    local[u]
                    for u in graph.graph.neighbors(v)
                    if u in member_set and u in local
                }
                color = 1
                while color in taken:
                    color += 1
                local[v] = color
            for v in members:
                labeling[v] = (cluster_color - 1) * block + local[v]
        # Center gathers + broadcasts within its cluster: 2*(spacing - 1).
        tracker.charge(2 * (self.spacing - 1))

        missing = [v for v in graph.nodes() if v not in labeling]
        if missing:
            raise InvalidAdvice(
                f"{len(missing)} nodes were not covered by any cluster",
                node=min(missing, key=graph.id_of),
            )
        # Members of one cluster get distinct local colors, so a clash means
        # two adjacent clusters carry the same color: corrupted advice.
        for u, v in graph.edges():
            if labeling[u] == labeling[v]:
                raise InvalidAdvice(
                    "adjacent clusters share a cluster color",
                    node=clustering.cluster_of(u),
                )

        # Linial reduction: one round per step, until no further shrinking.
        linial_rounds = 0
        coloring = labeling
        while linial_rounds < self.max_linial_rounds:
            reduced = linial_reduction_step(graph, coloring)
            linial_rounds += 1
            if max(reduced.values()) >= max(coloring.values()):
                break
            coloring = reduced
        tracker.charge(self.spacing - 1 + linial_rounds)
        # Normalize to colors >= 1 (Linial outputs may include 0).
        coloring = {v: c + 1 for v, c in coloring.items()}
        return DecodeResult(
            labeling=coloring,
            rounds=tracker.rounds,
            detail={"num_colors": num_colors(coloring)},
        )

    def check_solution(self, graph: LocalGraph, labeling: Labeling) -> bool:
        return is_proper(graph, labeling)


# ---------------------------------------------------------------------------
# Stage 2: Delta + 1 colors, no advice
# ---------------------------------------------------------------------------


class DeltaPlusOneReduction(OracleSchema):
    """Advice-free reduction of any proper coloring to ``Delta + 1`` colors.

    Scheduling by color classes: the independent class with the largest
    color re-picks greedily, one round per class.  This substitutes the
    paper's Theorem 6.8 primitive (identical output, ``O(Delta^2)`` rounds
    instead of ``O(sqrt(Delta log Delta))``).
    """

    def __init__(self) -> None:
        self.name = "delta-plus-one-reduction"
        self.problem = None

    def _rounds_bound(self, graph: LocalGraph) -> int:
        # One scheduling round per color class above Delta + 1; the input
        # palette is at most n colors.
        return graph.n

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        return LocalityContract(radius=self._rounds_bound(graph), advice_bits=0)

    def encode(self, graph: LocalGraph, oracle: Mapping[Node, int]) -> AdviceMap:
        return {v: "" for v in graph.nodes()}

    @locality_hints(rounds="_rounds_bound")
    def decode(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        oracle: Mapping[Node, int],
    ) -> DecodeResult:
        reduced, rounds = reduce_to_delta_plus_one(graph, oracle)
        return DecodeResult(labeling=reduced, rounds=rounds)


# ---------------------------------------------------------------------------
# Stage 3: Delta + 1 -> Delta repair (Lemmas 6.6-6.10)
# ---------------------------------------------------------------------------


class DeltaRepairSchema(OracleSchema):
    """Repair a ``Delta + 1``-coloring into a ``Delta``-coloring.

    The encoder walks the (independent) set of color-``Delta + 1`` nodes in
    identifier order.  For each, it searches for a proper
    ``Delta``-recoloring of a ball around it — radius 0 first (the paper's
    "low degree or repeated neighbor colors" easy case), then doubling.
    This subsumes the paper's shift-along-a-path: a shifted path is one
    particular ball recoloring, and Lemma 6.7 guarantees one within radius
    ``O(log_Delta n)`` — an *encoder-side* search radius, which is why
    ``max_repair_radius=None`` scales with ``n`` by default (the encoder is
    computationally unbounded; the paper's relay trick serves the same
    purpose of decoupling decoder locality from the chain length).

    The advice is the *diff*: every node whose final color differs from the
    oracle's stores ``1 + its new color`` (``1 + ceil(log2 Delta)`` bits).
    Decoding is a 1-round overlay — the advice literally pins the repaired
    region's colors, exactly what the paper's relay colors do.
    """

    def __init__(
        self,
        repair_radius: int = 1,
        max_repair_radius: Optional[int] = None,
        strategy: str = "auto",
    ) -> None:
        if strategy not in ("auto", "ball", "shift"):
            raise AdviceError("strategy must be 'auto', 'ball' or 'shift'")
        self.name = "delta-repair"
        self.problem = None
        self.repair_radius = repair_radius
        self.max_repair_radius = max_repair_radius
        self.strategy = strategy

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: the decode is a 1-round advice overlay; beta: the diff marker
        # bit plus a color in 1..Delta.
        return LocalityContract(
            radius=1, advice_bits=1 + _color_width(graph.max_degree)
        )

    def _radii(self, graph: LocalGraph) -> List[int]:
        cap = self.max_repair_radius
        if cap is None:
            # Lemma 6.7's O(log_Delta n) search radius, with slack.
            base = max(2, graph.max_degree)
            cap = max(4, 4 * math.ceil(math.log(max(2, graph.n), base)))
        radii = [0]
        r = self.repair_radius
        while r <= cap:
            radii.append(r)
            r *= 2
        if radii[-1] != cap:
            radii.append(cap)
        return radii

    def encode(self, graph: LocalGraph, oracle: Mapping[Node, int]) -> AdviceMap:
        delta = graph.max_degree
        width = _color_width(delta)
        working: Dict[Node, int] = dict(oracle)
        bad = sorted(
            (v for v in graph.nodes() if oracle[v] == delta + 1), key=graph.id_of
        )
        radii = self._radii(graph)
        for u in bad:
            if working[u] <= delta:
                continue  # already fixed by an earlier overlapping repair
            repaired = False
            if self.strategy in ("auto", "shift"):
                repaired = self._repair_by_shift(graph, working, u, radii[-1])
            if not repaired and self.strategy in ("auto", "ball"):
                repaired = self._repair_by_ball(graph, working, u, radii)
            if not repaired:
                raise AdviceError(
                    f"node {u!r}: no Delta-recoloring within radius "
                    f"{radii[-1]} (strategy={self.strategy}); the instance "
                    "may not be Delta-colorable"
                )
        assert_proper(graph, working)
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        for v in graph.nodes():
            if working[v] != oracle[v]:
                advice[v] = "1" + int_to_bits(working[v] - 1, width)
        return advice

    def _repair_by_ball(
        self,
        graph: LocalGraph,
        working: Dict[Node, int],
        u: Node,
        radii: List[int],
    ) -> bool:
        """Exact ball recoloring with escalating radius (the robust path)."""
        delta = graph.max_degree
        problem = vertex_coloring(delta)
        for radius in radii:
            interior = set(graph.ball(u, radius))
            ring = [z for z in graph.ball(u, radius + 1) if z not in interior]
            # A ring node still holding Delta + 1 forces a larger ball
            # (it will be swallowed and recolored too).
            if any(working[z] > delta for z in ring):
                continue
            boundary = {z: working[z] for z in ring}
            solution = solve_exact(
                problem, graph, fixed=boundary, restrict_to=interior
            )
            if solution is None:
                continue
            for w in interior:
                working[w] = solution[w]
            return True
        return False

    def _repair_by_shift(
        self,
        graph: LocalGraph,
        working: Dict[Node, int],
        u: Node,
        max_radius: int,
    ) -> bool:
        """Lemma 6.7's shift: walk a shortest path from ``u`` to a flexible
        vertex ``x`` (degree < Delta, or two same-colored neighbors off the
        path), pull each node's color one step towards ``u``, and give
        ``x`` a freed color.  The simulation is *checked*: a candidate is
        applied only when the shifted coloring is proper, so the encoder
        never relies on the existence argument alone.
        """
        delta = graph.max_degree
        # BFS by layers, remembering parents, trying flexible vertices in
        # the order they are discovered (closest first, then by identifier).
        parents: Dict[Node, Node] = {u: u}
        frontier = [u]
        depth = 0
        while frontier and depth <= max_radius:
            for x in sorted(frontier, key=graph.id_of):
                if x is not u and self._try_shift(graph, working, u, x, parents):
                    return True
            nxt = []
            for v in frontier:
                for w in graph.neighbors(v):
                    if w not in parents:
                        parents[w] = v
                        nxt.append(w)
            frontier = nxt
            depth += 1
        return False

    def _try_shift(
        self,
        graph: LocalGraph,
        working: Dict[Node, int],
        u: Node,
        x: Node,
        parents: Mapping[Node, Node],
    ) -> bool:
        delta = graph.max_degree
        path = [x]
        while path[-1] != u:
            path.append(parents[path[-1]])
        path.reverse()  # u = p_0, ..., p_k = x
        if any(working[p] > delta for p in path[1:]):
            return False  # never route through another uncolored node
        new: Dict[Node, int] = {}
        for a, b in zip(path, path[1:]):
            new[a] = working[b]
        taken = {
            new.get(w, working[w]) for w in graph.graph.neighbors(x)
        }
        free = [c for c in range(1, delta + 1) if c not in taken]
        if not free:
            return False
        new[x] = free[0]
        # Properness of every edge touching a changed node.
        for a in new:
            for b in graph.graph.neighbors(a):
                if new.get(a, working[a]) == new.get(b, working[b]):
                    return False
        working.update(new)
        return True

    def decode(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        oracle: Mapping[Node, int],
    ) -> DecodeResult:
        tracker = LocalityTracker(graph)
        delta = graph.max_degree
        width = _color_width(delta)
        labeling: Dict[Node, int] = dict(oracle)
        for v in graph.nodes():
            bits = advice.get(v, "")
            if not bits:
                continue
            if len(bits) != 1 + width or bits[0] != "1":
                raise InvalidAdvice(
                    f"corrupt repair advice at {v!r}: {bits!r}", node=v
                )
            labeling[v] = bits_to_int(bits[1:]) + 1
        tracker.charge(1)  # each node checks its neighborhood once
        leftovers = [v for v in graph.nodes() if labeling[v] > delta]
        if leftovers:
            raise InvalidAdvice(
                f"{len(leftovers)} nodes still exceed {delta} colors",
                node=min(leftovers, key=graph.id_of),
            )
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)


# ---------------------------------------------------------------------------
# The composed Theorem 6.1 schema
# ---------------------------------------------------------------------------


class DeltaColoringSchema(AdviceSchema):
    """Delta-coloring of Delta-colorable graphs (Theorem 6.1 / Corollary 6.2).

    A thin wrapper over ``compose_chain(ClusterColoringSchema,
    DeltaPlusOneReduction, DeltaRepairSchema)`` that attaches the
    ``Delta``-coloring validity check.
    """

    def __init__(
        self,
        spacing: int = 6,
        repair_radius: int = 1,
        max_repair_radius: Optional[int] = None,
    ) -> None:
        self.name = "delta-coloring"
        self.problem = None
        self._pipeline = compose_chain(
            ClusterColoringSchema(spacing=spacing),
            DeltaPlusOneReduction(),
            DeltaRepairSchema(
                repair_radius=repair_radius, max_repair_radius=max_repair_radius
            ),
        )

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        return self._pipeline.locality_contract(graph)

    def encode(self, graph: LocalGraph) -> AdviceMap:
        return self._pipeline.encode(graph)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        return self._pipeline.decode(graph, advice)

    def check_solution(self, graph: LocalGraph, labeling: Labeling) -> bool:
        return is_valid(vertex_coloring(graph.max_degree), graph, labeling)

    def repair_problem(self, graph: LocalGraph):
        return vertex_coloring(graph.max_degree)

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        # The pipeline is a ComposedSchema chain; its generic packed-string
        # scrub is the right advice-level repair here too.
        return self._pipeline.repair_advice(graph, advice, node, radius)
