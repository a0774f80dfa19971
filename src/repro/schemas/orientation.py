"""Almost-balanced orientations with advice (Section 5, Lemma 5.1).

Construction recap
------------------
The virtual graph ``G'`` (see :mod:`repro.algorithms.orientation`) pairs up
ports at every node, decomposing the edge set into *trails* — cycles and,
at odd-degree nodes, paths.  Orienting every trail consistently yields an
(almost-)balanced orientation, so the problem reduces to telling every node
which way its trails flow:

* trails of length ``<= walk_limit`` (the paper's ``r``) need **no advice**:
  a node walks the whole trail locally and applies a canonical rule
  ("find the node with the largest ID in the cycle, orient outgoing the
  edge towards its larger-ID neighbor" — we use the analogous
  smallest-edge rule);
* longer trails carry *anchors*: a trail edge ``(x, y)`` whose tail ``x``
  stores two bits (``1`` + a direction bit) and whose head ``y`` stores one
  bit (``1``) — exactly the paper's ``beta = gamma_0 = 2`` variable-length
  schema.  A node walks its trail for at most ``walk_limit`` steps in each
  direction; the first anchor it meets fixes the orientation.

Anchor placement must keep distinct anchors far apart (the paper's property
(2), distance ``>= 3 alpha``, proven possible by a Lovász-Local-Lemma
shifting argument).  We provide both a deterministic greedy placement with
blocking balls (:func:`place_anchors_greedy`) and the paper's randomized
shifting made constructive through Moser–Tardos
(:func:`place_anchors_lll`); the A2 ablation benchmark compares them.

The uniform 1-bit variant (Corollary 5.2/5.4) is in
:class:`OneBitOrientationSchema`: anchors become single nodes whose payload
(port index + direction bit) is laid out with the Lemma 9.2 marker-code
converter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..advice.bitstream import bits_to_int, int_to_bits
from ..advice.onebit import encode_paths, find_payloads_in_ball
from ..advice.schema import (
    AdviceError,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
)
from ..algorithms.lll import BadEvent, LLLInstance, moser_tardos
from ..algorithms.orientation import (
    Trail,
    orientation_to_port_labels,
    trail_decomposition,
    trail_step,
)
from ..lcl.catalog import balanced_orientation
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph, Node

Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class Anchor:
    """An advice anchor: trail edge ``(tail, head)`` plus the chosen
    orientation of that edge (``forward`` = tail -> head)."""

    tail: Node
    head: Node
    forward: bool


# ---------------------------------------------------------------------------
# Trail walking (the decoder's local primitive)
# ---------------------------------------------------------------------------


def walk_from_edge(
    graph: LocalGraph, a: Node, b: Node, max_steps: int
) -> Tuple[List[Edge], str]:
    """Follow the trail starting with the directed edge ``a -> b``.

    Returns ``(edges, status)`` where ``status`` is ``"closed"`` (the walk
    returned to ``a -> b``; ``edges`` is the entire cycle), ``"endpoint"``
    (the trail ends), or ``"truncated"`` (budget exhausted).
    """
    edges: List[Edge] = [(a, b)]
    prev, cur = a, b
    for _ in range(max_steps):
        nxt = trail_step(graph, prev, cur)
        if nxt is None:
            return edges, "endpoint"
        if (cur, nxt) == (a, b):
            return edges, "closed"
        edges.append((cur, nxt))
        prev, cur = cur, nxt
    return edges, "truncated"


def _canonical_cycle_forward(graph: LocalGraph, cycle_edges: Sequence[Edge]) -> bool:
    """Canonical direction of a fully-known closed trail.

    Rule: take the undirected edge with the lexicographically smallest
    ``(min_id, max_id)`` pair; the canonical direction traverses it from its
    smaller-ID endpoint to its larger-ID endpoint.  Returns whether the
    *given* traversal direction is canonical.  Every walker of the cycle
    reconstructs the same edge multiset, so all agree.
    """
    def key(e: Edge) -> Tuple[int, int]:
        ia, ib = graph.id_of(e[0]), graph.id_of(e[1])
        return (min(ia, ib), max(ia, ib))

    star = min(cycle_edges, key=key)
    return graph.id_of(star[0]) < graph.id_of(star[1])


def _canonical_open_forward(graph: LocalGraph, full_edges: Sequence[Edge]) -> bool:
    """Canonical direction of a fully-known open trail: from the endpoint
    with the smaller ID towards the other."""
    first = full_edges[0][0]
    last = full_edges[-1][1]
    return graph.id_of(first) < graph.id_of(last)


# ---------------------------------------------------------------------------
# Anchor placement
# ---------------------------------------------------------------------------


def _long_trails(trails: Sequence[Trail], walk_limit: int) -> List[Trail]:
    return [t for t in trails if t.length > walk_limit]


def _check_coverage(
    trail: Trail, positions: Sequence[int], walk_limit: int
) -> bool:
    """Can every edge of the trail reach an anchor within ``walk_limit``
    trail-steps (walking either direction, endpoints considered)?"""
    length = trail.length
    if not positions:
        return False
    pos = sorted(set(positions))
    if trail.closed:
        gaps = [
            ((pos[(i + 1) % len(pos)] - pos[i]) % length) or length
            for i in range(len(pos))
        ]
        return all(g <= 2 * walk_limit for g in gaps)
    if pos[0] > walk_limit:
        return False
    if length - 1 - pos[-1] > walk_limit:
        return False
    return all(b - a <= 2 * walk_limit for a, b in zip(pos, pos[1:]))


def place_anchors_greedy(
    graph: LocalGraph,
    trails: Sequence[Trail],
    walk_limit: int,
    spacing: int,
    separation: int = 0,
    forward: bool = True,
) -> List[Anchor]:
    """Deterministic anchor placement.

    Along each long trail, an anchor is due every ``spacing`` edges; the
    concrete edge is the first due edge that keeps the decoder's pattern
    unambiguous.  A walker misreads an anchor only when it traverses an
    edge joining the *tail* of one anchor to the *head* of another, so the
    exact invariant maintained is: anchor nodes are pairwise distinct, and
    no tail is adjacent to a foreign head.  ``separation > 0`` additionally
    keeps whole anchors at pairwise graph distance ``> separation`` — the
    paper's stronger property (used for composability sparsity, where the
    paper invokes the LLL with distance ``3 alpha``).

    Raises :class:`AdviceError` when coverage cannot be achieved — callers
    then enlarge ``walk_limit`` or shrink ``separation``.
    """
    if spacing < 1 or spacing > walk_limit:
        raise AdviceError("need 1 <= spacing <= walk_limit")
    used: Set[Node] = set()
    tails: Set[Node] = set()
    heads: Set[Node] = set()
    blocked: Set[Node] = set()  # only populated when separation > 0
    anchors: List[Anchor] = []

    def admissible(x: Node, y: Node) -> bool:
        if x in used or y in used or x in blocked or y in blocked:
            return False
        if any(w in heads for w in graph.graph.neighbors(x) if w != y):
            return False
        if any(w in tails for w in graph.graph.neighbors(y) if w != x):
            return False
        return True

    def try_place(x: Node, y: Node) -> bool:
        # Either endpoint may play the tail; the direction bit absorbs the
        # choice (Anchor.forward means "oriented tail -> head").
        for tail, head in ((x, y), (y, x)):
            if not admissible(tail, head):
                continue
            oriented_tail_to_head = forward == ((tail, head) == (x, y))
            anchors.append(
                Anchor(tail=tail, head=head, forward=oriented_tail_to_head)
            )
            used.update((x, y))
            tails.add(tail)
            heads.add(head)
            if separation > 0:
                blocked.update(graph.ball(x, separation))
                blocked.update(graph.ball(y, separation))
            return True
        return False

    # Round-robin across trails (one anchor per trail per pass) so an early
    # trail cannot deplete the admissible nodes before later trails place
    # anything.
    long_trails = _long_trails(trails, walk_limit)
    states = [
        {"edges": t.edges(), "due": 0, "index": 0, "positions": []}
        for t in long_trails
    ]
    active = True
    while active:
        active = False
        for state in states:
            edges = state["edges"]
            index = max(state["index"], state["due"])
            while index < len(edges):
                x, y = edges[index]
                if try_place(x, y):
                    state["positions"].append(index)
                    state["due"] = index + spacing
                    state["index"] = index + 1
                    active = True
                    break
                index += 1
            else:
                state["index"] = len(edges)

    for trail, state in zip(long_trails, states):
        if not _check_coverage(trail, state["positions"], walk_limit):
            raise AdviceError(
                f"greedy anchor placement failed coverage on a trail of "
                f"length {trail.length} (walk_limit={walk_limit}, "
                f"spacing={spacing}, separation={separation})"
            )
    return anchors


def place_anchors_lll(
    graph: LocalGraph,
    trails: Sequence[Trail],
    walk_limit: int,
    spacing: int,
    separation: int,
    seed: Optional[int] = 0,
    forward: bool = True,
) -> List[Anchor]:
    """The paper's shifting placement, made constructive.

    Tentative anchors sit every ``spacing`` edges along each long trail;
    each gets an independent random shift in ``[0, spacing // 3)``.  A bad
    event occurs when two anchors of *different* tentative slots end up with
    nodes within graph distance ``separation``; Moser–Tardos resampling
    clears all bad events (this is exactly the object whose existence the
    paper's Lovász-Local-Lemma argument guarantees).

    ``seed`` defaults to 0 so encoding is reproducible run-to-run; pass
    ``None`` explicitly to resample with fresh entropy.
    """
    shift_range = max(1, spacing // 3)
    slots: List[Tuple[int, Trail, int]] = []  # (slot id, trail, base position)
    for trail in _long_trails(trails, walk_limit):
        base = 0
        while base < trail.length:
            slots.append((len(slots), trail, base))
            base += spacing

    samplers = {
        slot_id: (lambda rng, _r=shift_range: rng.randrange(_r))
        for slot_id, _, _ in slots
    }

    def anchor_nodes(slot: Tuple[int, Trail, int], shift: int) -> Tuple[Node, Node]:
        _, trail, base = slot
        edges = trail.edges()
        pos = (base + shift) % len(edges) if trail.closed else min(
            base + shift, len(edges) - 1
        )
        return edges[pos]

    events: List[BadEvent] = []
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            slot_i, slot_j = slots[i], slots[j]

            def occurs(
                assignment: Mapping[object, object],
                _si=slot_i,
                _sj=slot_j,
            ) -> bool:
                xi, yi = anchor_nodes(_si, assignment[_si[0]])  # type: ignore[index]
                xj, yj = anchor_nodes(_sj, assignment[_sj[0]])  # type: ignore[index]
                near = set(graph.ball(xi, separation)) | set(
                    graph.ball(yi, separation)
                )
                return xj in near or yj in near

            # Only create the event if it can ever fire (cheap pre-filter).
            events.append(
                BadEvent(
                    name=f"conflict-{i}-{j}",
                    variables=(slot_i[0], slot_j[0]),
                    occurs=occurs,
                )
            )

    instance = LLLInstance(samplers=samplers, events=events)
    assignment, _ = moser_tardos(instance, seed=seed)

    anchors: List[Anchor] = []
    by_trail: Dict[int, List[int]] = {}
    for slot in slots:
        x, y = anchor_nodes(slot, assignment[slot[0]])  # type: ignore[index]
        anchors.append(Anchor(tail=x, head=y, forward=forward))
        edges = slot[1].edges()
        pos = (slot[2] + assignment[slot[0]]) % len(edges) if slot[1].closed else min(  # type: ignore[index,operator]
            slot[2] + assignment[slot[0]], len(edges) - 1  # type: ignore[operator]
        )
        by_trail.setdefault(id(slot[1]), []).append(pos)
    for trail in _long_trails(trails, walk_limit):
        if not _check_coverage(trail, by_trail.get(id(trail), []), walk_limit):
            raise AdviceError("LLL anchor placement failed coverage")
    return anchors


# ---------------------------------------------------------------------------
# The variable-length schema (Lemma 5.1 / Corollary 5.3)
# ---------------------------------------------------------------------------


class BalancedOrientationSchema(AdviceSchema):
    """Variable-length advice schema for almost-balanced orientation.

    ``beta = 2``: anchor tails hold ``"1" + direction-bit``, anchor heads
    hold ``"1"``, everybody else holds the empty string — the paper's
    Lemma 5.1 layout.  Output labels are per-port ``+-1`` tuples validated
    by the :func:`repro.lcl.catalog.balanced_orientation` LCL.

    Parameters
    ----------
    walk_limit:
        The paper's ``r``: trails up to this length are oriented canonically
        without advice; the decoder walks at most this many trail steps.
    anchor_spacing / anchor_separation:
        Placement parameters (see :func:`place_anchors_greedy`).
    use_lll:
        Place anchors with the Moser–Tardos shifting instead of greedily.
    reverse_trails:
        Orient long trails against their canonical walk direction — makes
        the direction bit carry real information in tests.
    """

    def __init__(
        self,
        walk_limit: Optional[int] = 16,
        anchor_spacing: Optional[int] = None,
        anchor_separation: int = 0,
        use_lll: bool = False,
        reverse_trails: bool = False,
        seed: Optional[int] = 0,
    ) -> None:
        self.name = "balanced-orientation"
        self.problem = balanced_orientation()
        self._walk_limit = walk_limit
        self._anchor_spacing = anchor_spacing
        self.anchor_separation = anchor_separation
        self.use_lll = use_lll
        self.reverse_trails = reverse_trails
        self.seed = seed

    def walk_limit_for(self, graph: LocalGraph) -> int:
        """``walk_limit=None`` auto-scales with the degree: the paper's
        decode time is ``Delta^{O(1)}``, and ``2 * Delta^2`` gives the
        greedy placement enough admissible edges on dense graphs."""
        if self._walk_limit is not None:
            return self._walk_limit
        return max(16, 2 * graph.max_degree**2)

    def spacing_for(self, graph: LocalGraph) -> int:
        return self._anchor_spacing or self.walk_limit_for(graph)

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: each edge walks at most walk_limit steps towards an anchor,
        # plus the one hop the endpoints exchange; beta: anchor tail stores
        # "1" + direction bit, the head stores "1".
        return LocalityContract(
            radius=self.walk_limit_for(graph) + 1, advice_bits=2
        )

    # -- encode ------------------------------------------------------------

    def encode(self, graph: LocalGraph) -> AdviceMap:
        trails = trail_decomposition(graph)
        forward = not self.reverse_trails
        placer = place_anchors_lll if self.use_lll else place_anchors_greedy
        kwargs = {"seed": self.seed} if self.use_lll else {}
        anchors = placer(
            graph,
            trails,
            self.walk_limit_for(graph),
            self.spacing_for(graph),
            self.anchor_separation,
            forward=forward,
            **kwargs,
        )
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        for anchor in anchors:
            if advice[anchor.tail] or advice[anchor.head]:
                raise AdviceError("anchor nodes overlap — placement bug")
            advice[anchor.tail] = "1" + ("1" if anchor.forward else "0")
            advice[anchor.head] = "1"
        return advice

    # -- decode ------------------------------------------------------------

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        oriented: Set[Edge] = set()
        for v, u in graph.edges():
            oriented.add(self._orient_edge(tracker, advice, v, u))
        labels = orientation_to_port_labels(graph, oriented)
        self.tracer.annotate(
            edges_oriented=len(oriented), locality_queries=tracker.queries
        )
        return DecodeResult(
            labeling=labels,
            rounds=tracker.rounds,
            detail={"oriented_edges": oriented},
        )

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Scrub over-long anchor strings near the failure and plant a
        fresh anchor on the failing node's first edge.

        Anchor bits are ``tail = "1" + direction``, ``head = "1"``; any
        longer string is corruption.  The planted anchor's direction is an
        arbitrary-but-deterministic guess — a wrong guess yields a
        verifier violation that the ball re-solve fixes in place.
        """
        patched = dict(advice)
        changed = False
        for u in graph.ball(node, radius):
            bits = patched.get(u, "")
            if len(bits) > 2 or any(b not in "01" for b in bits):
                patched[u] = ""
                changed = True
        neighbors = graph.neighbors(node)
        if neighbors and len(patched.get(node, "")) != 2:
            head = min(neighbors, key=graph.id_of)
            patched[node] = "11"
            if patched.get(head, "") != "1":
                patched[head] = "1"
            changed = True
        return patched if changed else None

    def _orient_edge(
        self,
        tracker: LocalityTracker,
        advice: Mapping[Node, str],
        v: Node,
        u: Node,
    ) -> Edge:
        """Orient one edge; both endpoints would compute the same answer
        because the walk depends only on the edge."""
        graph = tracker.graph
        limit = self.walk_limit_for(graph)
        tracker.charge(limit + 1)  # walk + reading advice of walked nodes
        fwd, fstat = walk_from_edge(graph, v, u, limit)
        if fstat == "closed":
            forward = _canonical_cycle_forward(graph, fwd)
            return (v, u) if forward else (u, v)
        bwd, bstat = walk_from_edge(graph, u, v, limit)
        if bstat == "endpoint" and fstat == "endpoint":
            full = [(b, a) for (a, b) in reversed(bwd[1:])] + fwd
            # Only short trails decode canonically: on a long trail some
            # walkers cannot see both endpoints, so all walkers must defer
            # to the anchors to stay consistent.
            if len(full) <= limit:
                forward = _canonical_open_forward(graph, full)
                return (v, u) if forward else (u, v)

        anchor = self._find_anchor(advice, fwd)
        if anchor is not None:
            oriented_edge, walked_as = anchor
            if self.tracer.enabled:
                self.tracer.event(
                    "anchor-read", node=v, anchor=oriented_edge[0], direction="fwd"
                )
            # Walk direction A traverses the original edge as (v, u).
            return (v, u) if oriented_edge == walked_as else (u, v)
        anchor = self._find_anchor(advice, bwd)
        if anchor is not None:
            oriented_edge, walked_as = anchor
            if self.tracer.enabled:
                self.tracer.event(
                    "anchor-read", node=v, anchor=oriented_edge[0], direction="bwd"
                )
            # Walk direction B traverses the original edge as (u, v).
            return (u, v) if oriented_edge == walked_as else (v, u)
        raise InvalidAdvice(
            f"edge {{{v!r}, {u!r}}}: no anchor within {limit} trail steps",
            node=v,
        )

    @staticmethod
    def _find_anchor(
        advice: Mapping[Node, str], walked: Sequence[Edge]
    ) -> Optional[Tuple[Edge, Edge]]:
        """Scan walked directed edges for an anchor pair.

        Returns ``(oriented_edge, walked_edge)``: the anchor's chosen
        orientation of its edge, and the directed edge as the walk
        traversed it.
        """
        for (x, y) in walked:
            bits_x = advice.get(x, "")
            bits_y = advice.get(y, "")
            if len(bits_x) == 2 and len(bits_y) == 1:
                tail, head, dir_bit = x, y, bits_x[1]
            elif len(bits_y) == 2 and len(bits_x) == 1:
                tail, head, dir_bit = y, x, bits_y[1]
            else:
                continue
            oriented = (tail, head) if dir_bit == "1" else (head, tail)
            return oriented, (x, y)
        return None


# ---------------------------------------------------------------------------
# Uniform 1-bit schema (Corollaries 5.2 / 5.4)
# ---------------------------------------------------------------------------


class OneBitOrientationSchema(AdviceSchema):
    """Almost-balanced orientation with **one bit per node**.

    The anchors become single nodes: an anchor node ``x`` stores, via the
    Lemma 9.2 marker-code layout, the payload ``port-index (fixed width) +
    direction bit`` describing how its edge at that port is oriented.  The
    marker code needs its own elbow room, so anchor separation must exceed
    twice the code window; the encoder verifies this (via
    :func:`repro.advice.onebit.encode_paths`) and raises otherwise.
    """

    def __init__(
        self,
        walk_limit: Optional[int] = None,
        anchor_spacing: Optional[int] = None,
        seed: Optional[int] = 0,
    ) -> None:
        self.name = "one-bit-orientation"
        self.problem = balanced_orientation()
        self._walk_limit = walk_limit
        self._anchor_spacing = anchor_spacing
        self.seed = seed

    def walk_limit_for(self, graph: LocalGraph) -> int:
        if self._walk_limit is not None:
            return self._walk_limit
        return max(48, 2 * graph.max_degree**2)

    def spacing_for(self, graph: LocalGraph) -> int:
        return self._anchor_spacing or self.walk_limit_for(graph)

    def _port_width(self, graph: LocalGraph) -> int:
        return max(1, (max(graph.max_degree - 1, 1)).bit_length())

    def _window(self, graph: LocalGraph) -> int:
        payload_bits = self._port_width(graph) + 1
        # header(8) + worst-case 4 bits/payload bit + terminator(1)
        return 8 + 4 * payload_bits + 1

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: small components gather themselves whole (2 * walk_limit),
        # everything else walks to an anchor and decodes its marker-code
        # window; beta: the uniform single bit of Lemma 9.2.
        limit = self.walk_limit_for(graph)
        return LocalityContract(
            radius=max(2 * limit, limit + self._window(graph)), advice_bits=1
        )

    def _small_component_nodes(self, graph: LocalGraph) -> Set[Node]:
        """Nodes in components of diameter <= walk_limit.

        Such components need no advice: every node's ``2 * walk_limit``-ball
        contains the whole component, so all of its walkers reconstruct all
        trails and agree on the canonical orientation.  This mirrors the
        paper's "small components are gathered whole" fallbacks and is what
        makes the schema well-defined when ``n`` is comparable to the
        marker-code window.
        """
        from ..algorithms.bfs import diameter_at_most

        small: Set[Node] = set()
        for component in graph.components():
            sub = graph.graph.subgraph(component)
            if diameter_at_most(sub, self.walk_limit_for(graph)):
                small |= set(component)
        return small

    def encode(self, graph: LocalGraph) -> AdviceMap:
        window = self._window(graph)
        separation = 2 * window + 2
        small = self._small_component_nodes(graph)
        trails = [
            t for t in trail_decomposition(graph) if t.nodes[0] not in small
        ]
        anchors = place_anchors_greedy(
            graph,
            trails,
            self.walk_limit_for(graph),
            self.spacing_for(graph),
            separation,
        )
        width = self._port_width(graph)
        payloads: Dict[Node, str] = {}
        for anchor in anchors:
            port = graph.port_of(anchor.tail, anchor.head)
            payloads[anchor.tail] = int_to_bits(port, width) + (
                "1" if anchor.forward else "0"
            )
        layout = encode_paths(graph, payloads, window=window)
        return dict(layout.bits)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        window = self._window(graph)
        width = self._port_width(graph)
        limit = self.walk_limit_for(graph)
        small = self._small_component_nodes(graph)
        oriented: Set[Edge] = set()
        for v, u in graph.edges():
            if v in small:
                # The node gathered its whole component (2 * walk_limit
                # rounds suffice by the diameter bound it can itself verify)
                # and orients its trails canonically.
                tracker.charge(2 * limit)
                full, status = walk_from_edge(graph, v, u, 2 * graph.m + 2)
                if status == "closed":
                    forward = _canonical_cycle_forward(graph, full)
                else:
                    back, _ = walk_from_edge(graph, u, v, 2 * graph.m + 2)
                    whole = [(b, a) for (a, b) in reversed(back[1:])] + full
                    forward = _canonical_open_forward(graph, whole)
                oriented.add((v, u) if forward else (u, v))
            else:
                oriented.add(
                    self._orient_edge(tracker, advice, v, u, window, width, limit)
                )
        labels = orientation_to_port_labels(graph, oriented)
        return DecodeResult(
            labeling=labels,
            rounds=tracker.rounds,
            detail={"oriented_edges": oriented},
        )

    def _orient_edge(
        self,
        tracker: LocalityTracker,
        advice: Mapping[Node, str],
        v: Node,
        u: Node,
        window: int,
        width: int,
        limit: int,
    ) -> Edge:
        graph = tracker.graph
        tracker.charge(limit + window)
        fwd, fstat = walk_from_edge(graph, v, u, limit)
        if fstat == "closed":
            return (v, u) if _canonical_cycle_forward(graph, fwd) else (u, v)
        bwd, bstat = walk_from_edge(graph, u, v, limit)
        if fstat == "endpoint" and bstat == "endpoint":
            full = [(b, a) for (a, b) in reversed(bwd[1:])] + fwd
            if len(full) <= limit:  # see BalancedOrientationSchema._orient_edge
                return (v, u) if _canonical_open_forward(graph, full) else (u, v)
        for walked, along_forward in ((fwd, True), (bwd, False)):
            found = self._find_payload_anchor(
                graph, advice, walked, window, width
            )
            if found is None:
                continue
            oriented_edge, walked_edge = found
            matches_walk = oriented_edge == walked_edge
            if along_forward:
                return (v, u) if matches_walk else (u, v)
            return (u, v) if matches_walk else (v, u)
        raise InvalidAdvice(
            f"edge {{{v!r}, {u!r}}}: no payload anchor within {limit} steps",
            node=v,
        )

    @staticmethod
    def _find_payload_anchor(
        graph: LocalGraph,
        advice: Mapping[Node, str],
        walked: Sequence[Edge],
        window: int,
        width: int,
    ) -> Optional[Tuple[Edge, Edge]]:
        from ..advice.onebit import decode_at

        for (x, y) in walked:
            for node, mate, walked_edge in ((x, y, (x, y)), (y, x, (x, y))):
                payload = decode_at(graph, node, window, advice)
                if payload is None or len(payload) != width + 1:
                    continue
                port = bits_to_int(payload[:width])
                nbrs = graph.neighbors(node)
                if port >= len(nbrs) or nbrs[port] != mate:
                    continue
                forward = payload[width] == "1"
                oriented = (node, mate) if forward else (mate, node)
                return oriented, walked_edge
        return None


def composable_orientation_schema(
    c: float, gamma: int, alpha: int
) -> BalancedOrientationSchema:
    """Instantiate Lemma 5.1's composable family at ``(c, gamma, alpha)``.

    Definition 3.4 requires, for any ``c > 0``, ``gamma >= gamma_0`` and
    ``alpha >= A(c, gamma)``, a variable-length schema with at most
    ``gamma_0 = 2`` bit-holders per alpha-ball, each ball holding at most
    ``c * alpha / gamma^3`` bits.  The paper achieves this by keeping
    anchors at pairwise distance ``>= 3 alpha``; we instantiate with
    ``separation = 3 * alpha`` and a walk limit large enough to cover the
    resulting gaps.  :func:`repro.advice.compose.check_composability`
    verifies the produced advice against the definition.
    """
    from ..advice.schema import AdviceError

    beta = 2  # Lemma 5.1's bit budget
    if alpha < max(gamma**3 * beta / max(c, 1e-9), gamma**3 * beta):
        raise AdviceError(
            f"alpha={alpha} below A(c, gamma) = "
            f"{max(gamma**3 * beta / c, gamma**3 * beta):.0f}"
        )
    separation = 3 * alpha
    # Decoder must bridge the separation-induced anchor gaps.
    walk_limit = 4 * separation
    return BalancedOrientationSchema(
        walk_limit=walk_limit,
        anchor_spacing=walk_limit,
        anchor_separation=separation,
    )
