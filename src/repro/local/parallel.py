"""Shared-nothing parallel decode pool over contiguous CSR chunks.

The paper's decoding step is *embarrassingly node-parallel*: each node's
output is a pure function of its radius-``T`` ball (Definition 3.1/3.2),
so any partition of the nodes can be decoded independently.  This module
realizes that on a :class:`concurrent.futures.ProcessPoolExecutor`:
the root range ``0..n-1`` (dense CSR order) is split into contiguous
chunks, each worker process gathers and decides its chunk against its own
private copy of the graph, and the parent merges outputs and work
counters.  Nothing is shared between workers — which is only sound when
the decision function really is a pure function of its view.

That soundness condition is *checked, not assumed*: the pool runs only
when :func:`repro.analysis.certify_pure_decider` mechanically certifies
the decider pure (no unwaived LOC001/LOC002/LOC003 finding) **and** the
run state (graph, decider, advice) pickles.  Otherwise
:func:`run_view_algorithm_parallel` warns and returns ``None``, and the
caller (:func:`repro.local.model.run_view_algorithm`) falls back to a
serial engine — a wrong answer is never produced, only a missed speedup.

Counter semantics: ``views_gathered``, ``bfs_node_visits`` and
``decide_calls`` are exact and engine-independent.  The emitted spans
declare the per-run counters, so ``WorkProfile.reconcile()`` balances
exactly.

Note on expectations: with one worker per core this helps only on
multi-core hosts and large graphs — process spin-up plus pickling the
graph costs tens of milliseconds.  The vectorized engine is the default
fast path; the pool exists for the many-core scaling story and is
correctness-tested at small pool sizes.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..obs.trace import NULL_TRACER
from ..perf import SimStats
from .graph import LocalGraph, Node
from .views import View, gather_view

__all__ = ["run_view_algorithm_parallel", "default_pool_size", "chunk_ranges"]

#: the per-worker run state, installed once per process by the pool
#: initializer: ``(graph, radius, decide, advice)``.
_WORKER_STATE: Optional[Tuple] = None


def default_pool_size() -> int:
    """Workers the pool uses when the caller does not pin a size."""
    return max(1, os.cpu_count() or 1)


def chunk_ranges(n: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``0..n-1`` into ``chunks`` contiguous near-equal ranges.

    Contiguity matters: dense CSR indices are BFS/insertion ordered, so a
    contiguous chunk touches a contiguous slice of the adjacency arrays —
    the same cache-locality argument the batched engine's root blocks use.
    """
    chunks = max(1, min(chunks, n) if n else 1)
    base, extra = divmod(n, chunks)
    out: List[Tuple[int, int]] = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def _init_worker(payload: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def _decode_chunk(bounds: Tuple[int, int]):
    """Gather + decide one contiguous root chunk inside a worker process.

    Returns ``(outputs, counters)`` — outputs keyed by node object, and
    this chunk's share of the :class:`SimStats` work counters.
    """
    lo, hi = bounds
    graph, radius, decide, advice = _WORKER_STATE
    stats = SimStats()
    views: Dict[Node, View]
    try:
        from .vectorized import gather_ball_batch, numpy_available
    except ImportError:  # pragma: no cover
        numpy_available = lambda: False  # noqa: E731
    if numpy_available():
        views = gather_ball_batch(
            graph, radius, advice=advice, roots=range(lo, hi), stats=stats
        ).views()
    else:  # scalar fallback: per-root gather with the worker's own graph
        compiled = graph.compiled
        views = {}
        for i in range(lo, hi):
            v = compiled.nodes[i]
            view = gather_view(graph, v, radius, advice=advice)
            views[v] = view
            stats.views_gathered += 1
            stats.bfs_node_visits += len(view.distances)
    outputs = {v: decide(view) for v, view in views.items()}
    return outputs, {
        "views_gathered": stats.views_gathered,
        "bfs_node_visits": stats.bfs_node_visits,
        "decide_calls": len(outputs),
    }


def run_view_algorithm_parallel(
    graph: LocalGraph,
    radius: int,
    decide: Callable[[View], object],
    advice: Optional[Mapping[Node, str]] = None,
    tracer=None,
    pool_size: Optional[int] = None,
):
    """Decode every node on a process pool; ``None`` when the gate refuses.

    The gate (in order): the PR 3 linter must certify ``decide`` pure
    (:func:`repro.analysis.certify_pure_decider`), and the run state must
    pickle.  On refusal a :class:`RuntimeWarning` explains why and the
    caller is expected to fall back to a serial engine.

    On success returns a :class:`repro.local.model.RunResult` whose
    ``stats`` carry ``engine="parallel"`` and the pool size, with the
    merged counter shares of every chunk.
    """
    from .model import RunResult  # circular-at-import, fine at call time

    from ..analysis import certify_pure_decider

    cert = certify_pure_decider(decide)
    if not cert.pure:
        warnings.warn(
            "parallel decode pool disabled — decision function not "
            f"certified pure: {cert.reason}; falling back to a serial "
            "engine",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    try:
        payload = pickle.dumps(
            (graph, radius, decide, dict(advice or {}))
        )
    except Exception as exc:  # noqa: BLE001 - any pickling failure disables
        warnings.warn(
            f"parallel decode pool disabled — run state does not pickle "
            f"({exc}); falling back to a serial engine",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    if tracer is None:
        tracer = NULL_TRACER
    workers = pool_size if pool_size else default_pool_size()
    workers = max(1, min(workers, max(graph.n, 1)))
    # A few chunks per worker smooths load imbalance between ball sizes.
    bounds = chunk_ranges(graph.n, workers * 4)

    stats = SimStats()
    stats.engine = "parallel"
    stats.pool_size = workers
    outputs: Dict[Node, object] = {}
    with tracer.span(
        "run_view_algorithm",
        radius=radius,
        n=graph.n,
        engine="parallel",
        pool_size=workers,
    ) as run_span:
        with tracer.span(
            "decode-pool", chunks=len(bounds), pool_size=workers
        ) as pool_span, stats.phase("decode-pool"):
            if graph.n:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(payload,),
                ) as pool:
                    chunk_results = list(pool.map(_decode_chunk, bounds))
            else:
                chunk_results = []
            for chunk_outputs, counters in chunk_results:
                outputs.update(chunk_outputs)
                stats.views_gathered += counters["views_gathered"]
                stats.bfs_node_visits += counters["bfs_node_visits"]
                stats.decide_calls += counters["decide_calls"]
            if tracer.enabled:
                # Declare the pool's full counter share: the pool span did
                # all the work of this run, so WorkProfile.reconcile()
                # balances exactly (run-span totals == pool-span declares).
                pool_span.set(
                    views_gathered=stats.views_gathered,
                    bfs_node_visits=stats.bfs_node_visits,
                    decide_calls=stats.decide_calls,
                )
        if tracer.enabled:
            run_span.set(**stats.as_dict())
    return RunResult(outputs=outputs, rounds=radius, stats=stats)
