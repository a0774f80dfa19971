"""Cross-checks: batched gathering and signature-keyed decisions vs the reference.

``gather_all_views`` must produce exactly the ``View`` that per-node
``gather_view`` produces (same frozensets, same mappings), and an
order-invariant algorithm memoized per order signature into a
``LookupTable`` must produce exactly the outputs of the plain engine run —
on random graphs, trees, grids, and graphs with isolated nodes.  A
hypothesis property test checks the soundness contract behind such tables:
equal order signatures never separate the outputs of an order-invariant
algorithm.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import binary_tree, cycle, grid
from repro.local import (
    LocalGraph,
    gather_all_views,
    gather_view,
    mark_order_invariant,
    run_view_algorithm,
)
from repro.lower_bounds import build_lookup_table, canonicalize, run_lookup_table


def _families():
    isolated = nx.Graph([(0, 1), (2, 3)])
    isolated.add_nodes_from([7, 8])
    return [
        ("grid", grid(5, 6)),
        ("tree", binary_tree(4)),
        ("cycle", cycle(15)),
        ("random", nx.gnp_random_graph(25, 0.15, seed=2)),
        ("isolated", isolated),
    ]


FAMILIES = _families()


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_gather_all_views_equals_per_node(name, raw, radius):
    g = LocalGraph(raw, seed=5, inputs={v: str(v) for v in raw.nodes()})
    advice = {v: "1" if g.id_of(v) % 3 == 0 else "" for v in g.nodes()}
    batched = gather_all_views(g, radius, advice=advice)
    assert set(batched) == set(g.nodes())
    for v in g.nodes():
        single = gather_view(g, v, radius, advice=advice)
        assert batched[v] == single  # exact dataclass equality, field by field


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_memoized_outputs_equal_unmemoized(name, raw):
    g = LocalGraph(raw, seed=6)

    def decide(view):
        ranked = sorted(view.nodes, key=view.id_of)
        return (len(view.nodes), tuple(view.distance(v) for v in ranked))

    invariant = canonicalize(decide)
    plain = run_view_algorithm(g, 2, invariant)
    table = build_lookup_table([g], 2, invariant)
    memoized = run_lookup_table(g, 2, table)
    assert memoized.outputs == plain.outputs
    assert plain.stats.decide_calls == memoized.stats.decide_calls == g.n


def test_marked_and_unmarked_deciders_agree():
    g = LocalGraph(cycle(20), seed=7)

    def decide(view):
        ranked = sorted(view.nodes, key=view.id_of)
        return tuple(view.distance(v) for v in ranked)

    unmarked = run_view_algorithm(g, 1, decide)
    marked = run_view_algorithm(g, 1, mark_order_invariant(lambda view: decide(view)))
    assert marked.outputs == unmarked.outputs
    # The mark is a claim for lint and lookup tables; the engine decides
    # every view either way.
    assert marked.stats.decide_calls == unmarked.stats.decide_calls == g.n


def test_unmarked_functions_never_memoize():
    g = LocalGraph(cycle(10), seed=8)
    result = run_view_algorithm(g, 1, lambda view: len(view.nodes))
    assert result.stats.decide_calls == g.n


def test_stats_populated():
    g = LocalGraph(grid(4, 4), seed=9)
    result = run_view_algorithm(g, 2, lambda view: view.radius)
    stats = result.stats
    assert stats.views_gathered == g.n
    assert stats.bfs_node_visits >= g.n  # every sweep visits at least itself
    assert "gather" in stats.phase_seconds
    assert "decide" in stats.phase_seconds


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    p=st.floats(min_value=0.0, max_value=0.5),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    id_seed=st.integers(min_value=0, max_value=10_000),
    radius=st.integers(min_value=0, max_value=3),
)
def test_order_signature_collisions_never_change_outputs(
    n, p, graph_seed, id_seed, radius
):
    """Soundness of the lookup-table key on random graphs.

    For any order-invariant algorithm, views with equal
    ``order_signature()`` must map to equal outputs — otherwise a table
    keyed on signatures would silently corrupt a run.
    """
    raw = nx.gnp_random_graph(n, p, seed=graph_seed)
    g = LocalGraph(raw, seed=id_seed)
    advice = {v: str(g.id_of(v) % 2) for v in g.nodes()}

    def decide(view):
        ranked = sorted(view.nodes, key=view.id_of)
        return (
            tuple(view.distance(v) for v in ranked),
            tuple(view.advice_of(v) for v in ranked),
            tuple(tuple(sorted(ranked.index(u) for u in view.neighbors(v))) for v in ranked),
        )

    invariant = canonicalize(decide)
    by_signature = {}
    for v, view in gather_all_views(g, radius, advice=advice).items():
        key = view.order_signature()
        output = invariant(view)
        if key in by_signature:
            assert by_signature[key] == output, (
                f"signature collision changed output at node {v!r}"
            )
        else:
            by_signature[key] = output
