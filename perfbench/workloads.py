"""The four benchmark workloads: ``solve``, ``serve``, ``churn`` and ``heal``.

Each is a closed loop with one client: the next op is issued when the
previous one returns, the way an in-process library caller behaves.  Every
input derives from the workload seed; the library only sees the generated
graphs, query streams, mutation plans and fault plans.  Ops are timed one by
one; outputs are checked outside the timed regions, and an op that raises or
returns a wrong answer is counted as failed instead of aborting the run.

``run_<workload>(seed, ops, cap_s, inst, setup_reps)`` issues a fixed number
of ops (so counts, memo sizes and memory do not depend on the host's speed)
and stops early only if ``cap_s`` seconds pass.  With ``inst`` (a
:class:`tracing.Instrumentation`) each op is a root span and the layer
wrappers are active; without it nothing but the op timer is added.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import api
from repro.dynamic import ChurnRunner, generate_mutation_plan
from repro.dynamic.campaign import FLAGSHIPS, _refresh_certificate, flagship_instance
from repro.faults import FaultPlan, RobustRunner
from repro.graphs import grid
from repro.local.graph import LocalGraph
from repro.local.vectorized import gather_views_batched
from repro.schemas.two_coloring import TwoColoringSchema
from repro.serve import AdviceService

#: Node-count hint of the ``solve`` and ``heal`` instances
#: (``core.default_instance``; a few schemas raise it to their minimum).
SOLVE_N = 256
HEAL_N = 256
#: Solves per schema per pass.  The planted-graph schemas' solve times vary
#: most between instances, so each pass gives them three instances.
SOLVE_REPS = {"3-coloring": 3, "delta-coloring": 3}
SOLVE_MAX_REPS = max(SOLVE_REPS.values())
#: Ops in one ``solve`` pass.
SOLVE_PASS_OPS = 10 + sum(r - 1 for r in SOLVE_REPS.values())
#: Served graph: a 256 x 256 grid (n = 65,536, Delta = 4).
SERVE_SIDE = 256
SERVE_SPACING = 8
SERVE_ZIPF = 0.8
#: Churn flagships and their n-hints: a 64 x 64 grid and a planted
#: 3-colorable graph; large enough that the per-mutation CSR rebuild shows.
CHURN_N = {"2-coloring": 4096, "3-coloring": 1000}
#: Fault kinds and the per-op fault count range of ``heal``.
HEAL_KINDS = ("flip", "erase", "truncate", "swap")
HEAL_MAX_FAULTS = 4


def mix(*parts: object) -> int:
    """Stable sub-seed from the workload seed and a tag."""
    return zlib.crc32(repr(parts).encode("utf-8"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload loop measured and checked."""

    workload: str
    #: index, duration and tag (schema or flagship) of every op that returned
    op_index: List[int] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    op_tags: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: outputs returned but wrong (a subset of ``failed``)
    wrong: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per-op observations from the program (counts, reports), by name
    obs: Dict[str, List[float]] = field(default_factory=dict)

    def note(self, key: str, value: float) -> None:
        self.obs.setdefault(key, []).append(value)

    def fail(self, exc: Optional[BaseException] = None) -> None:
        self.failed += 1
        if exc is None:
            self.wrong += 1
        else:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1

    def ms_by_tag(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for tag, ms in zip(self.op_tags, self.op_ms):
            out.setdefault(tag, []).append(ms)
        return out


#: The host's speed drifts by tens of percent within seconds (other tenants
#: share the cores), so every timing is scaled by a fixed pure-Python
#: reference timed right before and after it: ``ms * REF_MS / ref_ms``.
#: The reference is a breadth-first search of a fixed ``REF_SIDE`` x
#: ``REF_SIDE`` grid (adjacency lists, a distance dict): dict- and list-heavy
#: like the library's own graph code, it slows down as the library does.
#: Over 2 s blocks on a busy host, ops normalized by it spread 3-5 %; by an
#: integer-arithmetic loop, whose speed moves less than the library's, 8-12 %.
#: Values read as milliseconds on a host where the search takes ``REF_MS``.
REF_SIDE = 30
REF_MS = 0.25
#: Ops shorter than this share one calibration window.  The host switches
#: speed every second or so; short windows keep a switch from mis-scaling
#: many ops.
CAL_EVERY_MS = 5.0
#: References timed at each end of a set-up, which takes seconds.
SETUP_REF_SAMPLES = 5


def _grid_adjacency(side: int) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if r + 1 < side:
                adj[v].append(v + side)
                adj[v + side].append(v)
            if c + 1 < side:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
    return adj


_REF_ADJ = _grid_adjacency(REF_SIDE)


def reference_ms(samples: int = 1) -> float:
    """Median time of ``samples`` reference searches."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _REF_ADJ[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[len(times) // 2]


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """``(host-normalized seconds, result)`` of one call."""
    before = reference_ms(SETUP_REF_SAMPLES)
    t0 = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - t0
    return elapsed * REF_MS / ((before + reference_ms(SETUP_REF_SAMPLES)) / 2), value


class Loop:
    """Closed-loop op runner: op cap and deadline, per-op timer, optional span.

    Op times land in ``Outcome.op_ms`` host-normalized: ops are grouped
    into windows of at least ``CAL_EVERY_MS`` and each window is scaled by
    the reference timed at its two ends.  :meth:`close` settles the
    last window.
    """

    def __init__(self, out: Outcome, ops: int, cap_s: float, inst) -> None:
        self.out = out
        self.deadline = time.perf_counter() + cap_s
        self.max_ops = ops
        self.rec = inst.rec if inst is not None else None
        self._ref = reference_ms()
        self._window: List[int] = []
        self._window_ms = 0.0

    def more(self) -> bool:
        if self.out.attempted >= self.max_ops:
            return False
        return time.perf_counter() < self.deadline

    def run(self, root: str, tag: str, fn: Callable[[], object]) -> Tuple[bool, object]:
        """Issue one op; return ``(returned, result)``.  Exceptions count as failed."""
        self.out.attempted += 1
        span = self.rec.span(root, tag=tag) if self.rec is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # the loop must keep running; the failure is counted
            self.out.fail(exc)
            return False, exc
        ms = (time.perf_counter() - t0) * 1e3
        self.out.op_index.append(self.out.attempted - 1)
        self.out.op_ms.append(ms)
        self.out.op_tags.append(tag)
        self._window.append(len(self.out.op_ms) - 1)
        self._window_ms += ms
        if self._window_ms >= CAL_EVERY_MS:
            self._settle()
        return True, result

    def _settle(self) -> None:
        ref = reference_ms()
        scale = REF_MS / ((self._ref + ref) / 2)
        for i in self._window:
            self.out.op_ms[i] *= scale
        self._ref, self._window, self._window_ms = ref, [], 0.0

    def close(self) -> None:
        if self._window:
            self._settle()
        self.out.peak_rss_mb = peak_rss_mb()


# -- solve --------------------------------------------------------------------


def solve_instance(name: str, n: int, seed: int, j: int) -> Tuple[object, Dict, Dict]:
    """Instance ``j`` of schema ``name``: ``(nx graph, ids, schema kwargs)``."""
    graph, kwargs = api.default_instance(name, n, mix(seed, "solve", name, j))
    return graph.graph, graph.ids(), kwargs


def run_solve(seed: int, ops: int, cap_s: float, inst=None, setup_reps: int = 0,
              instances: Optional[int] = None, n: int = SOLVE_N) -> Outcome:
    """Cold encode -> decode -> meter -> verify of every schema, round robin.

    Each pass solves every schema ``SOLVE_REPS`` times (default once), each
    on its own instance and a fresh ``LocalGraph`` built just before the
    pass, so every solve pays the cold CSR build; set-up time is the build
    time of one pass's graphs.  Every pass draws new instances, unless
    ``instances`` caps how many distinct passes' worth the run cycles through.
    """
    out = Outcome("solve")
    slots = [(name, r) for name in api.available_schemas() for r in range(SOLVE_REPS.get(name, 1))]
    cache: Dict[Tuple[str, int], Tuple[object, Dict, Dict]] = {}
    loop = Loop(out, ops, cap_s, inst)
    gc.collect()
    passes = 0
    while loop.more():
        j = passes if instances is None else passes % instances
        inputs = {}
        for name, r in slots:
            key = (name, j * SOLVE_MAX_REPS + r)
            if key not in cache:
                cache[key] = solve_instance(name, n, seed, key[1])
            inputs[name, r] = cache[key]
        if instances is None:
            cache.clear()
        dt, graphs = timed(lambda: {
            slot: LocalGraph(raw, ids=ids) for slot, (raw, ids, _) in inputs.items()
        })
        out.setup_s.append(dt)
        for slot in slots:
            if not loop.more():
                break
            name = slot[0]
            kwargs = inputs[slot][2]
            ok, run = loop.run("core.solve", name,
                               lambda: api.solve_with_advice(name, graphs[slot], **kwargs))
            if not ok:
                continue
            if not run.valid:
                out.fail()
            if inst is not None:
                tel = run.telemetry
                out.note(f"rounds.{name}", run.rounds)
                out.note(f"bits_on_wire.{name}",
                         run.bandwidth.total_bits if run.bandwidth is not None else 0)
                out.note(f"memo_hits.{name}", tel.get("view_cache_hits", 0))
                out.note(f"memo_lookups.{name}",
                         tel.get("view_cache_hits", 0) + tel.get("view_cache_misses", 0))
                out.note(f"views_gathered.{name}", tel.get("views_gathered", 0))
        passes += 1
    loop.close()
    return out


# -- serve --------------------------------------------------------------------


def serve_stream(seed: int, nodes: List[int], length: int) -> List[int]:
    """Zipf(``SERVE_ZIPF``) draws over a seeded permutation of ``nodes``."""
    rng = random.Random(mix(seed, "serve"))
    order = list(nodes)
    rng.shuffle(order)
    cum, total = [], 0.0
    for rank in range(1, len(order) + 1):
        total += rank ** -SERVE_ZIPF
        cum.append(total)
    return rng.choices(order, cum_weights=cum, k=length)


def serve_reference(graph: LocalGraph, nodes: List[int]) -> Dict[int, object]:
    """Labels of ``nodes`` from a cold, unmemoized decode of fresh advice.

    The same per-view decide the schema's whole-graph decode runs, over
    radius-T balls gathered in chunks (a whole-graph decode of the 65k-node
    grid does not fit the benchmark's time and memory budget).
    """
    schema = TwoColoringSchema(spacing=SERVE_SPACING)
    advice = schema.encode(graph)
    radius = schema.locality_contract(graph).radius
    decide = schema.view_decoder()
    index_of = graph.compiled.index_of
    labels: Dict[int, object] = {}
    for start in range(0, len(nodes), 512):
        chunk = nodes[start:start + 512]
        views = gather_views_batched(graph, radius, advice, roots=[index_of[v] for v in chunk])
        for v in chunk:
            labels[v] = decide(views[v])
    return labels


def run_serve(seed: int, ops: int, cap_s: float, inst=None,
              setup_reps: int = 1) -> Outcome:
    """Single-node ``query(v)`` calls on one ``AdviceService`` (defaults)."""
    out = Outcome("serve")
    raw = grid(SERVE_SIDE, SERVE_SIDE)
    stream = serve_stream(seed, list(raw.nodes()), ops)

    def setup() -> AdviceService:
        graph = LocalGraph(raw, seed=seed)
        return AdviceService(TwoColoringSchema(spacing=SERVE_SPACING), graph)

    svc = None
    for _ in range(max(1, setup_reps)):
        svc = None
        gc.collect()
        dt, svc = timed(setup)
        out.setup_s.append(dt)
    if inst is not None:
        inst.service(svc)
    answers: Dict[int, object] = {}
    loop = Loop(out, ops, cap_s, inst)
    gc.collect()
    i = 0
    while loop.more():
        v = stream[i]
        i += 1
        ok, res = loop.run("serve.query", "2-coloring", lambda: svc.query(v))
        if not ok:
            continue
        if answers.setdefault(v, res.label) != res.label:
            out.fail()  # the same node answered two different labels
        if inst is not None:
            out.note("cache_hit", 1.0 if res.cache_hit else 0.0)
            out.note("ball_nodes", res.ball_size)
    loop.close()
    out.note("memo_entries", svc.memo_size)
    svc.close()
    reference = serve_reference(LocalGraph(raw, seed=seed), sorted(answers))
    bad = {v for v, label in answers.items() if reference[v] != label}
    if bad:
        for v in stream[:i]:
            if v in bad:
                out.fail()
    return out


# -- churn --------------------------------------------------------------------


def _apply_to_replica(graph: LocalGraph, m) -> None:
    if m.kind == "edge-insert":
        graph.add_edge(m.u, m.v)
    elif m.kind == "edge-delete":
        graph.remove_edge(m.u, m.v)
    elif m.kind == "node-insert":
        graph.add_node(m.node, neighbors=m.neighbors)
    else:
        graph.remove_node(m.node)


def run_churn(seed: int, ops: int, cap_s: float, inst=None,
              setup_reps: int = 1) -> Outcome:
    """``ChurnRunner.apply(m)`` on both flagships, mutations interleaved.

    Set-up is ``LocalGraph`` construction plus the ``ChurnRunner`` bootstrap
    (encode, decode, verify) of both flagships.  After the stream every
    flagship's labeling is verified whole-graph and its maintained advice
    is decoded cold and verified.
    """
    out = Outcome("churn")
    plans = {}
    for f in FLAGSHIPS:
        graph, _, model = flagship_instance(f, CHURN_N[f], seed)
        plans[f] = generate_mutation_plan(graph, (ops + 1) // 2, seed=seed, model=model).mutations

    state = None
    for _ in range(max(1, setup_reps)):
        state = None
        fresh = {}
        for f in FLAGSHIPS:
            graph, schema, replay = flagship_instance(f, CHURN_N[f], seed)
            fresh[f] = (graph.graph, graph.ids(),
                        inst.schema(schema) if inst is not None else schema, replay)
        gc.collect()
        dt, runners = timed(lambda: {
            f: ChurnRunner(schema, LocalGraph(raw, ids=ids))
            for f, (raw, ids, schema, _) in fresh.items()
        })
        out.setup_s.append(dt)
        state = {f: (runners[f], fresh[f][3]) for f in FLAGSHIPS}
    replicas = (
        {f: flagship_instance(f, CHURN_N[f], seed)[0] for f in FLAGSHIPS}
        if inst is not None else {}
    )
    for replica in replicas.values():
        replica.compiled
    loop = Loop(out, ops, cap_s, inst)
    gc.collect()
    i = 0
    while loop.more():
        f = FLAGSHIPS[i % 2]
        m = plans[f][i // 2]
        i += 1
        runner, replay = state[f]
        replay.apply(m)
        _refresh_certificate(runner.schema, replay)
        ok, record = loop.run("dynamic.apply", f, lambda: runner.apply(m))
        if not ok:
            continue
        if not record.valid:
            out.fail()
        if inst is not None:
            out.note(f"local.{f}", 1.0 if record.local else 0.0)
            out.note(f"noop.{f}", 1.0 if record.resolved_by == "noop" else 0.0)
            out.note(f"reencode.{f}", 1.0 if record.resolved_by == "reencode" else 0.0)
            out.note(f"repair_radius.{f}", record.repair_radius)
            replica = replicas[f]
            _apply_to_replica(replica, m)
            with inst.rec.span("local.recompile", tag=f) as span:
                replica.compiled
            out.note(f"recompile_ms.{f}", span.ms)
    loop.close()
    for f in FLAGSHIPS:
        runner, _ = state[f]
        out.attempted += 1
        try:
            decoded = runner.schema.decode(runner.graph, dict(runner.advice))
            ok = (runner.schema.check_solution(runner.graph, runner.labeling)
                  and runner.schema.check_solution(runner.graph, decoded.labeling))
        except Exception as exc:  # counted: the maintained advice no longer decodes
            out.fail(exc)
            continue
        if not ok:
            out.fail()
    return out


# -- heal ---------------------------------------------------------------------


def heal_plan(seed: int, i: int) -> FaultPlan:
    """Op ``i``'s seeded advice-fault plan: 1-4 faults of one kind."""
    run_seed = mix(seed, "heal", i)
    rng = random.Random(run_seed)
    kind = HEAL_KINDS[rng.randrange(len(HEAL_KINDS))]
    count = rng.randint(1, HEAL_MAX_FAULTS)
    field_name = {"flip": "advice_flips", "erase": "advice_erasures",
                  "truncate": "advice_truncations", "swap": "advice_swaps"}[kind]
    return FaultPlan(seed=run_seed, **{field_name: count})


def run_heal(seed: int, ops: int, cap_s: float, inst=None,
             setup_reps: int = 1) -> Outcome:
    """``RobustRunner.run(graph, plan, advice=clean)`` over all ten schemas.

    Set-up is ``LocalGraph`` construction, the clean encode and the
    ``RobustRunner`` construction of every schema.  An exception escaping
    ``run`` and a final labeling that does not verify both count as failed.
    """
    out = Outcome("heal")
    names = api.available_schemas()
    inputs = {}
    for name in names:
        graph, kwargs = api.default_instance(name, HEAL_N, seed)
        inputs[name] = (graph.graph, graph.ids(), kwargs)

    def setup(schemas):
        state = {}
        for name, schema in schemas.items():
            raw, ids, _ = inputs[name]
            graph = LocalGraph(raw, ids=ids)
            state[name] = (graph, schema.encode(graph), RobustRunner(schema))
        return state

    state = None
    for _ in range(max(1, setup_reps)):
        state = None
        schemas = {name: api.make_schema(name, **inputs[name][2]) for name in names}
        if inst is not None:
            schemas = {name: inst.schema(schema) for name, schema in schemas.items()}
        gc.collect()
        dt, state = timed(lambda: setup(schemas))
        out.setup_s.append(dt)
    loop = Loop(out, ops, cap_s, inst)
    gc.collect()
    i = 0
    while loop.more():
        name = names[i % len(names)]
        plan = heal_plan(seed, i)
        i += 1
        graph, clean, runner = state[name]
        ok, run = loop.run("faults.heal", name, lambda: runner.run(graph, plan, advice=clean))
        if not ok:
            out.note("escaped", 1.0)
            continue
        report = run.robustness
        if not (report.final_valid and run.valid):
            out.fail()
        if inst is not None:
            out.note("detected", 1.0 if report.detected else 0.0)
            if report.detected:
                out.note("local_repair", 1.0 if report.repaired_locally else 0.0)
            out.note("escalated", 1.0 if report.escalated else 0.0)
            for radius, count in report.repair_radius_hist.items():
                for _ in range(count):
                    out.note("repair_radius", radius)
    loop.close()
    return out


WORKLOADS = {"solve": run_solve, "serve": run_serve, "churn": run_churn, "heal": run_heal}
