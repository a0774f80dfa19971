"""Property tests (Hypothesis) for the Section 8 order-invariance kernel.

``View.canonical()`` and ``View.order_signature()`` are what lookup tables,
failure fingerprints and the whole order-invariance machinery stand on, so
we pin their algebra property-style:

* ``canonical()`` is idempotent;
* ``canonical()`` and ``order_signature()`` are invariant under random
  *order-preserving* (monotone) identifier re-assignments — the §8
  equivalence;
* for a fixed view under two arbitrary identifier assignments,
  ``order_signature`` equality holds **iff** the canonical forms are equal
  (the signature is exactly the canonical view, made hashable).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import binary_tree, cycle, grid, path
from repro.local import LocalGraph
from repro.local.views import gather_view

_FAMILIES = {
    "cycle": lambda rng: cycle(rng.randint(4, 12)),
    "path": lambda rng: path(rng.randint(3, 12)),
    "grid": lambda rng: grid(rng.randint(2, 4), rng.randint(2, 4)),
    "tree": lambda rng: binary_tree(rng.randint(2, 4)),
}


def _graph_with_random_ids(family, graph_seed, id_seed):
    rng = random.Random(graph_seed)
    g = _FAMILIES[family](rng)
    id_rng = random.Random(id_seed)
    nodes = sorted(g.nodes(), key=repr)
    values = id_rng.sample(range(1, 10 * len(nodes) + 10), len(nodes))
    return LocalGraph(g, ids=dict(zip(nodes, values)))


def _monotone_remap(graph, gap_seed):
    """A random strictly-increasing re-assignment of the identifier space."""
    rng = random.Random(gap_seed)
    by_id = sorted(graph.nodes(), key=graph.id_of)
    new_ids, cursor = {}, 0
    for v in by_id:
        cursor += rng.randint(1, 9)
        new_ids[v] = cursor
    return LocalGraph(
        graph.graph,
        ids=new_ids,
        inputs={v: graph.input_of(v) for v in graph.nodes()},
    )


common = dict(
    family=st.sampled_from(sorted(_FAMILIES)),
    graph_seed=st.integers(0, 10**6),
    id_seed=st.integers(0, 10**6),
    radius=st.integers(0, 3),
)


class TestCanonicalAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(**common)
    def test_canonical_idempotent(self, family, graph_seed, id_seed, radius):
        graph = _graph_with_random_ids(family, graph_seed, id_seed)
        center = min(graph.nodes(), key=graph.id_of)
        canonical = gather_view(graph, center, radius).canonical()
        assert canonical.canonical() == canonical

    @settings(max_examples=60, deadline=None)
    @given(gap_seed=st.integers(0, 10**6), **common)
    def test_canonical_invariant_under_monotone_remap(
        self, family, graph_seed, id_seed, radius, gap_seed
    ):
        graph = _graph_with_random_ids(family, graph_seed, id_seed)
        remapped = _monotone_remap(graph, gap_seed)
        for center in graph.nodes():
            before = gather_view(graph, center, radius)
            after = gather_view(remapped, center, radius)
            assert before.canonical() == after.canonical()
            assert before.order_signature() == after.order_signature()

    @settings(max_examples=60, deadline=None)
    @given(id_seed2=st.integers(0, 10**6), **common)
    def test_signature_equal_iff_canonical_equal(
        self, family, graph_seed, id_seed, radius, id_seed2
    ):
        """Two arbitrary id assignments of the same graph: the signatures
        agree exactly when the rank-canonical views agree."""
        a = _graph_with_random_ids(family, graph_seed, id_seed)
        b = _graph_with_random_ids(family, graph_seed, id_seed2)
        for center in a.nodes():
            va = gather_view(a, center, radius)
            vb = gather_view(b, center, radius)
            assert (va.order_signature() == vb.order_signature()) == (
                va.canonical() == vb.canonical()
            )
