"""Whole-graph decodes are pinned bit-for-bit across engine changes.

2-coloring decodes through ``run_view_algorithm``, and splitting and
delta-edge-coloring reach it through their composed 2-coloring layer.
Each digest covers the labeling, the advice, the decode rounds and the
bits-on-wire of one seeded demo instance; a change to the view engine
that alters any of them fails here.
"""

import hashlib

import pytest

from repro.core.api import default_instance, solve_with_advice

#: sha256 prefixes of ``_fingerprint`` on ``default_instance(name, 200, seed)``.
PINNED = {
    ("2-coloring", 0): "ad2441b2649750a3",
    ("2-coloring", 1): "792e00523b993475",
    ("2-coloring", 2): "85271582ceb3865a",
    ("splitting", 0): "6f1d772ae5d76601",
    ("splitting", 1): "d64dcf493fb01fbc",
    ("splitting", 2): "84d41420e666753a",
    ("delta-edge-coloring", 0): "d7a9672ef0497b97",
    ("delta-edge-coloring", 1): "d7a3784cdac96dee",
    ("delta-edge-coloring", 2): "384b1e3e2bd2bedc",
}


def _fingerprint(run):
    payload = repr((
        sorted(run.result.labeling.items()),
        sorted(run.advice.items()),
        run.rounds,
        run.bandwidth.total_bits,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,seed", sorted(PINNED), ids=[f"{n}-{s}" for n, s in sorted(PINNED)])
def test_whole_graph_decode_is_bit_identical(name, seed):
    graph, kwargs = default_instance(name, 200, seed)
    run = solve_with_advice(name, graph, **kwargs)
    assert run.valid
    assert _fingerprint(run) == PINNED[(name, seed)]
