"""Sparse advice for 2-coloring bipartite graphs (the paper's ``Pi_v``).

Section 3.5 uses 2-coloring as the running example of a problem with a
trivially *composable* schema: "we assign 1 bit to a sparse set of nodes
(encoding their color), and to all other nodes we do not assign any bit.
The nodes that have no bit assigned can still recover a 2-coloring by
simple propagation."

The anchors form a ``(spacing, spacing - 1)``-ruling set of each connected
component; a node recovers its color from the parity of its distance to the
nearest anchor (well-defined exactly because the graph is bipartite).
Without advice, 2-coloring is a *global* problem — ``Omega(n)`` rounds on a
path — which is what makes even this baby schema interesting.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import networkx as nx

from ..advice.onebit import decode_at, encode_paths
from ..advice.schema import (
    AdviceError,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
)
from ..algorithms.ruling_set import greedy_ruling_set
from ..local.model import MessagePassingAlgorithm, run_view_algorithm
from ..local.views import View, mark_order_invariant
from ..lcl.catalog import vertex_coloring
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph, Node


def _bipartition(graph: LocalGraph) -> Dict[Node, int]:
    """A proper 2-coloring (colors 1/2) or :class:`AdviceError` if odd cycles."""
    coloring: Dict[Node, int] = {}
    for component in graph.components():
        start = min(component, key=graph.id_of)
        coloring[start] = 1
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.graph.neighbors(v):
                    if u in coloring:
                        if coloring[u] == coloring[v]:
                            raise AdviceError("graph is not bipartite")
                        continue
                    coloring[u] = 3 - coloring[v]
                    nxt.append(u)
            frontier = nxt
    return coloring


class TwoColoringSchema(AdviceSchema):
    """Variable-length sparse schema for bipartite 2-coloring.

    Anchors (one per ``spacing``-ruling-set node) hold a single bit: their
    own color.  ``beta = 1``; bit-holders are arbitrarily sparse as
    ``spacing`` grows; decoding takes ``spacing - 1`` rounds — the
    composability trade-off of Definition 3.4 in its purest form.
    """

    def __init__(self, spacing: int = 8) -> None:
        if spacing < 2:
            raise AdviceError("spacing must be >= 2")
        self.name = "two-coloring"
        self.problem = vertex_coloring(2)
        self.spacing = spacing

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: the view algorithm gathers a radius-(spacing - 1) ball (every
        # node sees an anchor at that distance); beta: one color bit.
        return LocalityContract(radius=self.spacing - 1, advice_bits=1)

    def view_decoder(self):
        # The same decide function decode() runs graph-wide; exposing it
        # lets repro.serve answer per-node queries from a single ball.
        return mark_order_invariant(_nearest_anchor_color)

    def encode(self, graph: LocalGraph) -> AdviceMap:
        coloring = _bipartition(graph)
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        for component in graph.components():
            anchors = greedy_ruling_set(graph, self.spacing, candidates=component)
            for anchor in anchors:
                advice[anchor] = "1" if coloring[anchor] == 1 else "0"
        return advice

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        """Decode as an order-invariant view algorithm.

        The per-node rule (nearest anchor, ties to the smaller identifier,
        color by distance parity) compares identifiers only by order, so
        order-isomorphic neighborhoods decode identically; the
        ``mark_order_invariant`` claim is checked by lint rules ORD001/ORD002
        and the order-invariance fuzzer.
        """
        radius = self.spacing - 1
        result = run_view_algorithm(
            graph,
            radius,
            mark_order_invariant(_nearest_anchor_color),
            advice=advice,
            tracer=self.tracer,
        )
        return DecodeResult(
            labeling=dict(result.outputs),
            rounds=radius if graph.n else 0,
            detail={"stats": result.stats.as_dict() if result.stats else {}},
            stats=result.stats,
        )

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Scrub malformed anchor bits near the failure; if the failing
        node then has no anchor at all, synthesize one on the node itself.

        The synthesized color may have the wrong parity — that surfaces as
        a verifier violation and is healed by a ball re-solve, which keeps
        the whole repair radius-bounded.
        """
        patched = dict(advice)
        changed = False
        for u in graph.ball(node, radius):
            bits = patched.get(u, "")
            if bits not in ("", "0", "1"):
                patched[u] = bits[0] if bits[0] in "01" else ""
                changed = True
        if not patched.get(node, ""):
            patched[node] = "0"
            changed = True
        return patched if changed else None

    def repair_advice_for_mutation(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites,
        radius: int,
        labeling: Mapping[Node, int],
    ) -> Optional[AdviceMap]:
        """Re-derive the anchors near a mutation from the maintained coloring.

        Two bounded passes over ``ball(site, R)`` with
        ``R = max(radius, spacing - 1)``:

        1. *Resync*: every anchor whose bit disagrees with the maintained
           labeling is rewritten (a ball re-solve may have flipped colors
           around the site; anchors must stay consistent with the unique
           bipartition the labeling witnesses).
        2. *Cover*: every node that lost its last in-range anchor (edge or
           node deletion stretched distances; a fresh node arrived) gets
           one planted, bit taken from the labeling.  Distances only
           change along shortest paths through the mutation site, so any
           node affected lies within ``spacing - 1`` of a site and both
           passes stay radius-bounded.
        """
        reach = self.spacing - 1
        span = max(radius, reach)
        patched = dict(advice)
        changed = False
        region: list = []
        seen = set()
        for s in sites:
            for w in graph.ball(s, span):
                if w not in seen:
                    seen.add(w)
                    region.append(w)
        region.sort(key=graph.id_of)
        for w in region:
            bits = patched.get(w, "")
            if not bits:
                continue
            want = "1" if labeling.get(w) == 1 else "0"
            if bits != want:
                patched[w] = want
                changed = True
        for w in region:
            if _sees_anchor(graph, patched, w, reach):
                continue
            patched[w] = "1" if labeling.get(w) == 1 else "0"
            changed = True
        return patched if changed else None


def _sees_anchor(
    graph: LocalGraph, advice: Mapping[Node, str], w: Node, reach: int
) -> bool:
    """Early-exit BFS: is any non-empty advice bit within ``reach`` of ``w``?"""
    if advice.get(w, ""):
        return True
    seen = {w}
    frontier = [w]
    for _ in range(reach):
        nxt = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y not in seen:
                    if advice.get(y, ""):
                        return True
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return False
        frontier = nxt
    return False


def _nearest_anchor_color(view: View) -> int:
    """Color the view's center from the nearest advice-holding anchor.

    Anchors at minimal distance tie-break toward the smaller identifier;
    the color is the anchor's bit, flipped when the distance is odd.
    """
    best = min(
        (
            (view.distance(v), view.id_of(v), v)
            for v in view.nodes
            if view.advice_of(v)
        ),
        default=None,
    )
    if best is None:
        raise InvalidAdvice(
            f"node {view.center!r}: no anchor within {view.radius} hops",
            node=view.center,
        )
    distance, _, anchor = best
    color = 1 if view.advice_of(anchor) == "1" else 2
    return color if distance % 2 == 0 else 3 - color


class OneBitTwoColoringSchema(AdviceSchema):
    """Uniform 1-bit variant of :class:`TwoColoringSchema` (via Lemma 9.2).

    Each anchor's color bit becomes a marker-code payload; all other nodes
    carry ``0``.  The anchors need spacing ``> 2 * window + 2``
    (``window = 13`` for a 1-bit payload), so the effective spacing is
    ``max(spacing, 2 * window + 3)``.
    """

    #: marker-code window for a 1-bit payload: header 8 + word 4 + term 1.
    WINDOW = 13

    def __init__(self, spacing: int = 29) -> None:
        self.name = "one-bit-two-coloring"
        self.problem = vertex_coloring(2)
        self.spacing = max(spacing, 2 * self.WINDOW + 3)

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: anchor search radius plus the marker-code window the payload
        # decode walks; beta: the uniform Lemma 9.2 single bit.
        return LocalityContract(
            radius=self.spacing - 1 + self.WINDOW, advice_bits=1
        )

    def encode(self, graph: LocalGraph) -> AdviceMap:
        coloring = _bipartition(graph)
        payloads: Dict[Node, str] = {}
        for component in graph.components():
            anchors = greedy_ruling_set(graph, self.spacing, candidates=component)
            for anchor in anchors:
                payloads[anchor] = "1" if coloring[anchor] == 1 else "0"
        layout = encode_paths(graph, payloads, window=self.WINDOW)
        return dict(layout.bits)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        tracer = self.tracer
        radius = self.spacing - 1
        tracker.charge(radius + self.WINDOW)
        graph_ = tracker.graph
        # Gather phase: every node locates its nearest decodable anchor
        # payload (the information its radius-(spacing+window) ball holds).
        anchors: Dict[Node, Tuple[str, int]] = {}
        with tracer.span("gather", radius=radius + self.WINDOW, n=graph.n):
            for v in graph_.nodes():
                found = None
                for distance in range(radius + 1):
                    starts = []
                    for u in graph_.sphere(v, distance):
                        payload = decode_at(graph_, u, self.WINDOW, advice)
                        if payload is not None and len(payload) == 1:
                            starts.append((u, payload))
                    if starts:
                        anchor, payload = min(
                            starts, key=lambda t: graph_.id_of(t[0])
                        )
                        found = (payload, distance)
                        if tracer.enabled:
                            tracer.event(
                                "anchor-read",
                                node=v,
                                anchor=anchor,
                                distance=distance,
                            )
                        break
                if found is None:
                    raise InvalidAdvice(
                        f"node {v!r}: no anchor payload in range", node=v
                    )
                anchors[v] = found
        # Decide phase: distance parity fixes the color.
        labeling: Dict[Node, int] = {}
        with tracer.span("decide", n=graph.n):
            for v, (payload, distance) in anchors.items():
                color = 1 if payload == "1" else 2
                labeling[v] = color if distance % 2 == 0 else 3 - color
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)


class TwoColoringMessagePassing(MessagePassingAlgorithm):
    """The 2-coloring decoder as an explicit message-passing algorithm.

    Anchors (nodes whose advice is non-empty) start a wave carrying
    ``(anchor id, anchor color, distance)``; every node adopts the first
    wave it hears (ties broken by smaller anchor identifier), fixes its
    color by distance parity, and keeps forwarding for the full ``spacing``
    rounds so later ties resolve identically everywhere.  This is the same
    algorithm :meth:`TwoColoringSchema.decode` simulates through view
    semantics; the test suite checks the two agree output-for-output.
    """

    def __init__(self, spacing: int) -> None:
        super().__init__()
        self.spacing = spacing
        self.best = None  # (anchor id, color, distance)

    def init(self, ctx) -> None:
        super().init(ctx)
        if ctx.advice:
            color = 1 if ctx.advice == "1" else 2
            self.best = (ctx.node_id, color, 0)
        if self.spacing <= 1:
            self._finish()

    def send(self, round_index):
        if self.best is None:
            return {}
        return {port: self.best for port in range(self.ctx.degree)}

    def receive(self, round_index, messages):
        for anchor_id, color, distance in messages.values():
            candidate = (anchor_id, color, distance + 1)
            if self.best is None or (
                candidate[2],
                candidate[0],
            ) < (self.best[2], self.best[0]):
                self.best = candidate
        if round_index + 1 >= self.spacing - 1:
            self._finish()

    def _finish(self) -> None:
        if self.best is None:
            raise InvalidAdvice(
                f"node {self.ctx.node!r}: no anchor wave arrived",
                node=self.ctx.node,
            )
        anchor_id, color, distance = self.best
        self.output = color if distance % 2 == 0 else 3 - color
