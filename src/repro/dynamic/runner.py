"""The churn runner: local advice maintenance under live mutations.

:class:`ChurnRunner` owns a ``(graph, advice, labeling)`` triple that it
keeps *jointly valid* while the graph mutates in place.  Each applied
:class:`~repro.dynamic.plan.Mutation` is treated as a localized fault, in
the Section 6 ball/shift sense:

1. **Classify** — a connectivity-sensitivity precheck in the
   double-edge-cut style: bounded BFS decides whether the event is
   confined (the deleted edge lies on a short cycle, the inserted edge
   joins nearby nodes) or far-reaching (``split`` / ``join``).
2. **Local label repair** — verify only the balls around the mutation
   sites; violations are healed by the shared local-repair kernel
   (:func:`~repro.faults.runner.repair_labels`, the annulus-fixed
   escalating ball re-solve that :class:`~repro.faults.RobustRunner` also
   runs).  It is sound here for the same reason: the pre-mutation
   labeling was valid and the LCL predicate has bounded radius, so any
   residual violation lives near a site.
3. **Advice patch** — where a schema can re-derive bits from the
   maintained labeling (2- and 3-coloring), its
   :meth:`~repro.advice.schema.AdviceSchema.repair_advice_for_mutation`
   hook rewrites the affected balls, leaving every other node's advice
   verbatim.  Other schemas keep their old bits.
4. **Escalate** — only when locality fails: a full re-encode bounded by
   a retry budget with deterministic logical backoff; an exhausted
   budget is a clean recorded failure, never a loop.

Every step emits :class:`~repro.obs.robustness.RepairAction` /
:class:`~repro.obs.churn.MutationRecord` records and the churn metrics
(``mutations_*``, ``repairs_local_total``, ``repair_radius``,
``reencode_fallbacks_total``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..advice.schema import (
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    validate_advice_map,
)
from ..faults.runner import repair_labels, retry_global, valid_at
from ..lcl.problem import Label, LCLProblem

# The kernel's solver call resolves through ``repro.faults.runner``; this
# name stays only because ``perfbench/tracing.py`` wraps ``solve_exact`` on
# both runner modules to time the ``lcl.solve`` layer.
from ..lcl.solve import solve_exact  # noqa: F401
from ..local.graph import LocalGraph, Node
from ..obs.churn import (
    RESOLVED_FAILED,
    RESOLVED_LOCAL,
    RESOLVED_NOOP,
    RESOLVED_REENCODE,
    MutationRecord,
)
from ..obs.metrics import MetricsRegistry
from ..obs.robustness import ADVICE_PATCH, BALL_RESOLVE, RepairAction
from ..obs.trace import NULL_TRACER, Tracer
from .plan import Mutation


class ChurnError(RuntimeError):
    """Raised when the runner cannot bootstrap a valid initial state."""


class ChurnRunner:
    """Maintain a valid ``(graph, advice, labeling)`` triple under churn.

    Parameters
    ----------
    schema:
        The :class:`AdviceSchema` whose advice is being served.
    graph:
        The live graph; the runner mutates it in place via the
        :class:`LocalGraph` mutator API (which epoch-invalidates every
        topology cache).
    max_ball_radius:
        Largest label-repair ball radius before escalating to re-encode.
    max_solver_steps:
        Backtracking budget per ball re-solve.
    reencode_budget / backoff_base:
        The re-encode fallback retries at most ``reencode_budget`` times
        per mutation; failed attempt ``k`` records a deterministic
        logical backoff of ``backoff_base ** (k - 1)`` ticks (recorded,
        never slept).  Exhaustion marks the mutation ``failed``.
    classify_bound:
        BFS bound of the connectivity precheck (defaults to
        ``4 * max_ball_radius``).
    """

    def __init__(
        self,
        schema: AdviceSchema,
        graph: LocalGraph,
        max_ball_radius: int = 8,
        max_solver_steps: int = 200_000,
        reencode_budget: int = 3,
        backoff_base: int = 2,
        classify_bound: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if reencode_budget < 1:
            raise ValueError("reencode_budget must be >= 1")
        self.schema = schema
        self.graph = graph
        self.max_ball_radius = max_ball_radius
        self.max_solver_steps = max_solver_steps
        self.reencode_budget = reencode_budget
        self.backoff_base = backoff_base
        self.classify_bound = (
            classify_bound if classify_bound is not None else 4 * max_ball_radius
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()
        self.applied = 0
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Initial encode + decode + verify; the serving state starts valid."""
        schema, graph = self.schema, self.graph
        with self.tracer.span("churn_bootstrap", schema=schema.name, n=graph.n):
            self.advice: AdviceMap = {
                v: bits for v, bits in schema.encode(graph).items()
            }
            for v in graph.nodes():
                self.advice.setdefault(v, "")
            validate_advice_map(graph, self.advice, complete=True)
            result = schema.decode(graph, self.advice)
            self.labeling: Dict[Node, Label] = dict(result.labeling)
        if not schema.check_solution(graph, self.labeling):
            raise ChurnError(f"bootstrap decode of {schema.name} is invalid")
        self.problem: Optional[LCLProblem] = schema.repair_problem(graph)

    # -- connectivity-sensitivity precheck ------------------------------------

    def _within(self, u: Node, v: Node, bound: int) -> bool:
        """Bounded-BFS reachability (the double-edge-cut style query)."""
        if u == v:
            return True
        for layer in self.graph.bfs_layers(u, bound):
            if v in layer:
                return True
        return False

    def _classify(self, mutation: Mutation, sites: Sequence[Node]) -> str:
        """``absorbable`` when the event is provably confined to a ball.

        An inserted edge between nearby endpoints, or a deleted edge on a
        short cycle, perturbs only a bounded region; endpoints further
        apart than ``classify_bound`` mean regions merged (``join``) or
        separated (``split``) — recorded, and used to widen repair.
        """
        bound = self.classify_bound
        kind = mutation.kind
        if kind == "edge-insert":
            # Called after the insert: the old distance is the shortest
            # alternative path, i.e. the shortest cycle through the edge.
            return "absorbable" if self._short_cycle(mutation.u, mutation.v, bound) else "join"
        if kind == "edge-delete":
            return "absorbable" if self._within(mutation.u, mutation.v, bound) else "split"
        if kind == "node-insert":
            anchor = sites[0]
            if all(self._within(anchor, s, bound) for s in sites[1:]):
                return "absorbable"
            return "join"
        # node-delete: do the former neighbors reconnect without v?
        if len(sites) <= 1:
            return "absorbable"
        anchor = sites[0]
        if all(self._within(anchor, s, bound) for s in sites[1:]):
            return "absorbable"
        return "split"

    def _short_cycle(self, u: Node, v: Node, bound: int) -> bool:
        """Does the edge ``{u, v}`` lie on a cycle of length <= bound + 1?

        BFS from ``u`` that refuses to traverse the edge itself; reaching
        ``v`` within ``bound`` hops exhibits the alternative path.
        """
        seen = {u}
        frontier = [u]
        for _ in range(bound):
            nxt: List[Node] = []
            for x in frontier:
                for y in self.graph.neighbors(x):
                    if x == u and y == v:
                        continue
                    if y == v:
                        return True
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                return False
            frontier = nxt
        return False

    # -- topology application --------------------------------------------------

    def _apply_topology(self, mutation: Mutation) -> Tuple[List[Node], str]:
        """Mutate the graph; return surviving anchor sites + classification."""
        graph = self.graph
        kind = mutation.kind
        if kind == "edge-insert":
            graph.add_edge(mutation.u, mutation.v)
            sites = [mutation.u, mutation.v]
            return sites, self._classify(mutation, sites)
        if kind == "edge-delete":
            graph.remove_edge(mutation.u, mutation.v)
            sites = [mutation.u, mutation.v]
            return sites, self._classify(mutation, sites)
        if kind == "node-insert":
            graph.add_node(mutation.node, neighbors=mutation.neighbors)
            self.advice[mutation.node] = ""
            sites = [mutation.node] + list(mutation.neighbors)
            return sites, self._classify(mutation, sites)
        # node-delete
        dropped = graph.remove_node(mutation.node)
        self.advice.pop(mutation.node, None)
        self.labeling.pop(mutation.node, None)
        sites = sorted(dropped, key=graph.id_of)
        return sites, self._classify(mutation, sites)

    # -- local label repair -----------------------------------------------------

    def _region_violations(
        self, problem: LCLProblem, sites: Sequence[Node], radius: int
    ) -> List[Node]:
        """Violating/unlabeled nodes within ``radius + r`` of any site."""
        graph = self.graph
        region: Set[Node] = set()
        for s in sites:
            region.update(graph.ball(s, radius + problem.radius))
        return sorted(
            (v for v in region if not valid_at(problem, graph, self.labeling, v)),
            key=graph.id_of,
        )

    # -- escalation --------------------------------------------------------------

    def _reencode(self, record: MutationRecord) -> bool:
        """Full re-encode + decode, bounded by the retry budget."""
        schema, graph = self.schema, self.graph
        self.registry.counter("reencode_fallbacks_total").inc()

        def attempt() -> Tuple[AdviceMap, DecodeResult]:
            advice = {v: bits for v, bits in schema.encode(graph).items()}
            for v in graph.nodes():
                advice.setdefault(v, "")
            return advice, schema.decode(graph, advice)

        advice, labeling = retry_global(
            attempt,
            lambda labels: schema.check_solution(graph, labels),
            self.reencode_budget,
            self.backoff_base,
            "reencode",
            record.actions,
            self.tracer,
        )
        if advice is None:
            return False
        self.advice, self.labeling = advice, labeling
        return True

    # -- entry point --------------------------------------------------------------

    def apply(self, mutation: Mutation, full_check: bool = False) -> MutationRecord:
        """Apply one mutation and restore the serving invariant.

        With ``full_check=True`` the record's validity bit comes from a
        whole-graph verify (what the campaign asserts per step); the
        default verifies only the affected region, which is the bounded
        amount of work the locality argument licenses.
        """
        schema, graph, registry = self.schema, self.graph, self.registry
        record = MutationRecord(index=self.applied, mutation=mutation.describe())
        self.applied += 1
        kind_key = mutation.kind.replace("-", "_")
        registry.counter("mutations_total").inc()
        registry.counter(f"mutations_{kind_key}_total").inc()
        with self.tracer.span(
            "churn_apply", schema=schema.name, kind=mutation.kind
        ) as span:
            old_problem = self.problem
            sites, classification = self._apply_topology(mutation)
            record.classification = classification
            self.problem = schema.repair_problem(graph)
            problem = self.problem

            residual: List[Node] = []
            label_radius = 0
            if problem is not None:
                if old_problem is not None and repr(old_problem) != repr(problem):
                    # A global parameter shifted (e.g. Delta dropped and the
                    # palette shrank): region checks are no longer sound,
                    # fall back to a whole-graph sweep.
                    bad = [
                        v
                        for v in graph.nodes()
                        if not valid_at(problem, graph, self.labeling, v)
                    ]
                    bad.sort(key=graph.id_of)
                else:
                    bad = self._region_violations(problem, sites, problem.radius)
                if bad:
                    residual, label_radius = repair_labels(
                        graph,
                        problem,
                        self.labeling,
                        bad,
                        self.max_ball_radius,
                        self.max_solver_steps,
                        record.actions,
                        self.tracer,
                        registry,
                    )
            elif any(v not in self.labeling for v in sites):
                # No label-level repair possible; force escalation below.
                residual = [v for v in sites if v not in self.labeling]

            patched_advice = False
            if not residual:
                # Wide enough to cover the ball-re-solve interior: bad nodes
                # sit within 2*r of a site and repairs reach label_radius
                # further out.
                r0 = problem.radius if problem is not None else 1
                hook_radius = max(2 * r0, label_radius + 2 * r0)
                patched = schema.repair_advice_for_mutation(
                    graph, self.advice, sites, hook_radius, self.labeling
                )
                if patched is not None:
                    self.advice = dict(patched)
                    patched_advice = True
                    seed_node = sites[0] if sites else None
                    record.actions.append(
                        RepairAction(
                            ADVICE_PATCH, seed_node, hook_radius, True, detail="churn"
                        )
                    )
                    registry.counter("repairs_local_total").inc()
                    registry.histogram("repair_radius").observe(hook_radius)
                for v in sites:
                    self.advice.setdefault(v, "")

            if residual:
                ok = self._reencode(record)
                record.resolved_by = RESOLVED_REENCODE if ok else RESOLVED_FAILED
            elif patched_advice or any(
                a.kind == BALL_RESOLVE and a.success for a in record.actions
            ):
                record.resolved_by = RESOLVED_LOCAL
            else:
                record.resolved_by = RESOLVED_NOOP

            if record.resolved_by == RESOLVED_FAILED:
                record.valid = False
            elif full_check or record.resolved_by == RESOLVED_REENCODE:
                record.valid = bool(schema.check_solution(graph, self.labeling))
            elif problem is not None:
                record.valid = not self._region_violations(
                    problem, sites, max(label_radius, problem.radius)
                )
            else:
                record.valid = True
            if self.tracer.enabled:
                span.set(
                    classification=classification,
                    resolved_by=record.resolved_by,
                    valid=record.valid,
                )
        return record
