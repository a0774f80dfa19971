"""The self-healing robust runner.

Layered over :meth:`repro.advice.schema.AdviceSchema.run`, the
:class:`RobustRunner` executes encode → (inject) → decode → verify like the
plain driver, but treats failures as things to *heal* instead of report:

1. **Decode errors** (``AdviceError`` with node attribution, produced by
   the corruption-aware decoders) trigger advice-level repair at the
   failing node: first the schema's own :meth:`repair_advice` patch
   (e.g. synthesizing a fresh anchor), then a radius-bounded
   *advice re-request* — re-fetching the prover's bits for one escalating
   ball — before re-decoding.
2. **Verifier violations** (:func:`repro.lcl.verify.violations`) are
   localized via :mod:`repro.obs.failure` attribution, clustered, and
   healed by **escalating-radius ball re-solve**: the labels inside the
   ball are brute-forced against the LCL with the surrounding annulus
   pinned (:func:`repro.lcl.solve.solve_exact` — the same primitive the
   Section 4 encoder uses, and the generic form of the Section 6
   Delta-repair ball recoloring).
3. Only when every radius-bounded strategy is exhausted does the runner
   fall back to a **global re-solve** (a budgeted re-decode of the clean
   advice), which the :class:`~repro.obs.robustness.RobustnessReport`
   counts as an escalation.

Soundness of the ball re-solve: clusters are merged aggressively enough
that each repair ball's annulus contains no *other* cluster's violations,
and the catalog predicates are monotone under refinement, so a patch that
satisfies the solver is exact — it can only remove violations, never leak
new ones past the annulus.

The ball re-solve (:func:`repair_labels`) and the budgeted global fallback
(:func:`retry_global`) live at module level because they are the shared
local-repair kernel: :class:`~repro.dynamic.runner.ChurnRunner` runs the
same two functions on the sites of a topology mutation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..advice.schema import (
    AdviceError,
    AdviceMap,
    DecodeResult,
    AdviceSchema,
    SchemaRun,
    beta_of,
    classify_schema_type,
    total_bits,
    validate_advice_map,
)
from ..lcl.problem import Label, LCLProblem
from ..lcl.solve import SearchBudgetExceeded, solve_exact
from ..lcl.verify import violations
from ..local.graph import LocalGraph, Node
from ..obs.failure import build_error_report, build_violation_reports
from ..obs.metrics import MetricsRegistry
from ..obs.robustness import (
    ADVICE_PATCH,
    ADVICE_REFETCH,
    BALL_RESOLVE,
    GLOBAL_RESOLVE,
    RepairAction,
    RobustnessReport,
)
from ..obs.trace import NULL_TRACER, Tracer
from .inject import FaultInjector
from .plan import FaultPlan


def _clusters(
    graph: LocalGraph, bad: Sequence[Node], threshold: int
) -> List[List[Node]]:
    """Group violating nodes whose graph distance is <= ``threshold``.

    BFS out to ``threshold`` from each bad node; nodes reaching each other
    merge.  The threshold is chosen by the caller so that one cluster's
    repair annulus can never contain another cluster's violations.
    """
    bad = sorted(bad, key=graph.id_of)
    index = {v: i for i, v in enumerate(bad)}
    parent = list(range(len(bad)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for v in bad:
        seen = {v}
        frontier = [v]
        for _ in range(threshold):
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if y in index:
                            union(index[v], index[y])
            frontier = nxt
    groups: Dict[int, List[Node]] = {}
    for i, v in enumerate(bad):
        groups.setdefault(find(i), []).append(v)
    return [groups[r] for r in sorted(groups)]


def _annulus(graph: LocalGraph, interior: Set[Node], width: int) -> List[Node]:
    """The ``width`` BFS layers immediately surrounding ``interior``."""
    ring: List[Node] = []
    seen = set(interior)
    frontier = list(interior)
    for _ in range(width):
        nxt = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    ring.append(y)
        frontier = nxt
    return ring


def valid_at(
    problem: LCLProblem,
    graph: LocalGraph,
    labeling: Mapping[Node, Label],
    v: Node,
) -> bool:
    """Is ``v`` labeled, with its constraint satisfied?

    A label missing inside ``v``'s ball (a fresh insert) or a per-port
    label whose arity no longer matches its node's ports (an edge label
    after a degree change) is a violation here, not an error.
    """
    if v not in labeling:
        return False
    try:
        return problem.is_valid_at(graph, labeling, v)
    except (KeyError, IndexError):
        return False


def repair_labels(
    graph: LocalGraph,
    problem: LCLProblem,
    labeling: Dict[Node, Label],
    bad: Sequence[Node],
    max_ball_radius: int,
    max_solver_steps: int,
    actions: List[RepairAction],
    tracer: Tracer,
    registry: MetricsRegistry,
) -> Tuple[List[Node], int]:
    """Heal ``bad`` in place by annulus-fixed escalating-radius ball re-solve.

    Bad nodes are clustered, each cluster's ball is brute-forced against
    the LCL with a width-``2r`` annulus pinned, and the radius grows
    ``r + {0, 1, 2, 4, 8}`` up to ``max(max_ball_radius, r)``.  Only the
    still-bad nodes are re-checked between radii: the pinned annulus keeps
    every repair from creating violations elsewhere.  Returns the residual
    violations and the largest radius of a successful repair.
    """
    r0 = problem.radius
    cap = max(max_ball_radius, r0)
    used = 0
    for radius in sorted({min(cap, r0 + step) for step in (0, 1, 2, 4, 8)} | {cap}):
        if not bad:
            break
        threshold = 2 * (radius + 2 * r0) + 1
        for cluster in _clusters(graph, bad, threshold):
            interior: Set[Node] = set()
            for v in cluster:
                interior.update(graph.ball(v, radius))
            annulus = _annulus(graph, interior, 2 * r0)
            fixed = {u: labeling[u] for u in annulus if u in labeling}
            try:
                with tracer.span(
                    "repair", kind=BALL_RESOLVE, radius=radius, cluster=len(cluster)
                ):
                    solution = solve_exact(
                        problem,
                        graph,
                        fixed=fixed,
                        restrict_to=sorted(interior, key=graph.id_of),
                        max_steps=max_solver_steps,
                    )
            except SearchBudgetExceeded:
                solution = None
            seed_node = min(cluster, key=graph.id_of)
            if solution is None:
                actions.append(RepairAction(BALL_RESOLVE, seed_node, radius, False))
                continue
            for w in interior:
                labeling[w] = solution[w]
            used = max(used, radius)
            actions.append(RepairAction(BALL_RESOLVE, seed_node, radius, True))
            registry.counter("repairs_local_total").inc()
            registry.histogram("repair_radius").observe(radius)
        bad = [v for v in bad if not valid_at(problem, graph, labeling, v)]
    return list(bad), used


def retry_global(
    attempt: Callable[[], Tuple[AdviceMap, DecodeResult]],
    is_valid: Callable[[Mapping[Node, Label]], bool],
    budget: int,
    backoff_base: int,
    label: str,
    actions: List[RepairAction],
    tracer: Tracer,
) -> Tuple[Optional[AdviceMap], Dict[Node, Label]]:
    """The global fallback: retry ``attempt`` until it decodes valid.

    Each attempt that raises an :class:`AdviceError` or decodes invalid
    burns one unit of ``budget`` and records a deterministic logical
    backoff of ``backoff_base ** (k - 1)`` ticks (recorded, never slept —
    runs stay bit-reproducible).  Returns the advice and labeling of the
    first valid attempt; on an exhausted budget the advice is ``None`` and
    the labeling is the last one decoded (empty if none was).
    """
    labeling: Dict[Node, Label] = {}
    for k in range(1, budget + 1):
        backoff = backoff_base ** (k - 1)
        try:
            with tracer.span("repair", kind=GLOBAL_RESOLVE, attempt=k):
                advice, result = attempt()
        except AdviceError as exc:
            outcome = f"raised {type(exc).__name__}"
        else:
            labeling = dict(result.labeling)
            if is_valid(labeling):
                actions.append(
                    RepairAction(GLOBAL_RESOLVE, None, -1, success=True, detail=label)
                )
                return advice, labeling
            outcome = "decoded invalid"
        actions.append(
            RepairAction(
                GLOBAL_RESOLVE,
                None,
                -1,
                success=False,
                detail=f"{label} attempt {k}/{budget} {outcome}; backoff {backoff}",
            )
        )
    return None, labeling


class RobustRunner:
    """Encode → inject → decode → verify → locally repair → report.

    Parameters
    ----------
    schema:
        The :class:`AdviceSchema` to run.
    max_ball_radius:
        Largest label-repair ball radius before escalating past
        ball re-solve.
    patch_radii / refetch_radii:
        Escalation schedules for the advice-level strategies.
    max_decode_attempts:
        Bound on re-decode attempts during advice-level healing.
    max_solver_steps:
        Backtracking budget per ball re-solve (budget exhaustion counts
        as a failed attempt at that radius, not an error).
    escalate_budget / backoff_base:
        The global fallback retries at most ``escalate_budget`` times; a
        failed attempt ``k`` records a deterministic logical backoff of
        ``backoff_base ** (k - 1)`` ticks (recorded, never slept — runs
        stay bit-reproducible).  An exhausted budget is a clean give-up:
        the report carries ``gave_up=True`` and summarizes as
        ``"gave-up"`` instead of looping on an unhealable run.
    """

    def __init__(
        self,
        schema: AdviceSchema,
        max_ball_radius: int = 10,
        patch_radii: Sequence[int] = (2, 8),
        refetch_radii: Sequence[int] = (2, 4, 8, 16, 32, 64),
        max_decode_attempts: int = 16,
        max_solver_steps: int = 200_000,
        escalate_budget: int = 3,
        backoff_base: int = 2,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if escalate_budget < 1:
            raise ValueError("escalate_budget must be >= 1")
        if backoff_base < 1:
            raise ValueError("backoff_base must be >= 1")
        self.schema = schema
        self.max_ball_radius = max_ball_radius
        self.patch_radii = tuple(patch_radii)
        self.refetch_radii = tuple(refetch_radii)
        self.max_decode_attempts = max_decode_attempts
        self.max_solver_steps = max_solver_steps
        self.escalate_budget = escalate_budget
        self.backoff_base = backoff_base
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- entry point ---------------------------------------------------------

    def run(
        self,
        graph: LocalGraph,
        plan: Optional[FaultPlan] = None,
        check: bool = True,
        advice: Optional[Mapping[Node, str]] = None,
    ) -> SchemaRun:
        """One fault-injected, self-healed schema run.

        ``advice`` short-circuits the encode step with a precomputed clean
        advice map (the chaos campaign encodes once per schema and replays
        many fault plans against it).
        """
        schema = self.schema
        tracer, registry = self.tracer, self.registry
        report = RobustnessReport(
            schema_name=schema.name, seed=plan.seed if plan is not None else None
        )
        previous = schema._active_tracer
        schema._active_tracer = tracer
        try:
            with tracer.span("robust_run", schema=schema.name, n=graph.n) as span:
                with tracer.span("encode", schema=schema.name):
                    clean = (
                        {v: advice.get(v, "") for v in graph.nodes()}
                        if advice is not None
                        else schema.encode(graph)
                    )
                validate_advice_map(graph, clean)
                working: AdviceMap = {v: clean.get(v, "") for v in graph.nodes()}
                if plan is not None and plan.wants_advice_faults:
                    with tracer.span("inject", schema=schema.name):
                        injector = FaultInjector(plan)
                        working, injected = injector.corrupt_advice(graph, clean)
                        report.injected = [f.as_dict() for f in injected]
                        registry.counter("faults_injected_total").inc(
                            len(injected)
                        )
                        if tracer.enabled:
                            for fault in injected:
                                tracer.event("fault-injected", **fault.as_dict())

                result, working = self._decode_with_healing(
                    graph, clean, working, report
                )
                labeling: Dict[Node, Label] = dict(result.labeling)
                failures = []
                valid: Optional[bool] = None
                if check:
                    problem = schema.repair_problem(graph)
                    with tracer.span("verify", schema=schema.name):
                        valid = self._valid(graph, labeling)
                        bad = (
                            []
                            if valid
                            else self._violations(graph, problem, labeling)
                        )
                    report.initial_violations = len(bad)
                    if not valid:
                        report.detected = True
                        failures = build_violation_reports(
                            schema.name,
                            graph,
                            working,
                            labeling,
                            bad,
                            result.rounds,
                            ring=tracer.ring(),
                        )
                        if problem is not None and bad:
                            repair_labels(
                                graph,
                                problem,
                                labeling,
                                bad,
                                self.max_ball_radius,
                                self.max_solver_steps,
                                report.actions,
                                tracer,
                                registry,
                            )
                            valid = self._valid(graph, labeling)
                        if not valid:
                            labeling, working, valid = self._refetch_and_redecode(
                                graph, clean, working, labeling, problem, report
                            )
                        if not valid:
                            report.escalated = True
                            fresh = {v: clean.get(v, "") for v in graph.nodes()}
                            fallback, labeling = retry_global(
                                lambda: (fresh, schema.decode(graph, fresh)),
                                lambda labels: self._valid(graph, labels),
                                self.escalate_budget,
                                self.backoff_base,
                                "verify",
                                report.actions,
                                tracer,
                            )
                            valid = fallback is not None
                            report.gave_up = not valid
                if report.detected:
                    registry.counter("faults_detected_total").inc()
                if report.escalated:
                    registry.counter("repairs_global_total").inc()
                report.final_valid = bool(valid) if check else True

                run = SchemaRun(
                    schema_name=schema.name,
                    advice=working,
                    result=DecodeResult(
                        labeling=labeling,
                        rounds=result.rounds,
                        detail=dict(result.detail),
                        stats=result.stats,
                    ),
                    schema_type=classify_schema_type(graph, working),
                    beta=beta_of(graph, working),
                    total_advice_bits=total_bits(graph, working),
                    n=graph.n,
                    max_degree=graph.max_degree,
                    valid=valid,
                    failures=failures,
                    robustness=report,
                )
                run.telemetry = schema._build_telemetry(run, registry)
                run.telemetry["robustness"] = {
                    "injected": report.injected_count,
                    "detected": report.detected,
                    "locally_repaired": report.locally_repaired,
                    "escalated": report.escalated,
                }
                if tracer.enabled:
                    span.set(
                        valid=run.valid,
                        injected=report.injected_count,
                        detected=report.detected,
                        escalated=report.escalated,
                    )
                return run
        finally:
            schema._active_tracer = previous

    # -- validity helpers ----------------------------------------------------

    def _valid(self, graph: LocalGraph, labeling: Mapping[Node, Label]) -> bool:
        return bool(self.schema.check_solution(graph, labeling))

    def _violations(
        self,
        graph: LocalGraph,
        problem: Optional[LCLProblem],
        labeling: Mapping[Node, Label],
    ) -> List[Node]:
        if problem is None:
            return []
        return sorted(violations(problem, graph, labeling), key=graph.id_of)

    # -- stage 0: decode with advice-level healing ---------------------------

    def _decode_strategies(self) -> Iterator[Tuple[str, int]]:
        for radius in self.patch_radii:
            yield ADVICE_PATCH, radius
        for radius in self.refetch_radii:
            yield ADVICE_REFETCH, radius

    def _decode_with_healing(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        report: RobustnessReport,
    ) -> Tuple[DecodeResult, AdviceMap]:
        """Decode, healing attributed errors with escalating advice repair."""
        schema, tracer, registry = self.schema, self.tracer, self.registry
        strategies: Dict[Node, Iterator[Tuple[str, int]]] = {}
        advice_actions: List[RepairAction] = []
        globally_reset = False
        while True:
            report.decode_attempts += 1
            try:
                with tracer.span(
                    "decode", schema=schema.name, attempt=report.decode_attempts
                ):
                    result = schema.decode(graph, working)
                # Decode converged: the patches that got us here worked.
                for action in advice_actions:
                    action.success = True
                for action in advice_actions:
                    registry.counter("repairs_local_total").inc()
                    registry.histogram("repair_radius").observe(action.radius)
                return result, working
            except AdviceError as exc:
                report.detected = True
                report.decode_errors += 1
                registry.counter("decode_errors_total").inc()
                failure = build_error_report(
                    schema.name, graph, working, exc, ring=tracer.ring()
                )
                node = failure.node
                if tracer.enabled:
                    tracer.event(
                        "decode-error",
                        node=node,
                        attempt=report.decode_attempts,
                        error=failure.error,
                    )
                if globally_reset:
                    # Clean advice still fails to decode: a schema bug, not
                    # corruption — surface it instead of looping.
                    raise
                localized = node is not None and graph.graph.has_node(node)
                if (
                    not localized
                    or report.decode_attempts >= self.max_decode_attempts
                ):
                    working = self._global_decode_fallback(graph, clean, report)
                    globally_reset = True
                    continue
                patched = self._next_advice_patch(
                    graph, clean, working, node, strategies, advice_actions, report
                )
                if patched is None:
                    working = self._global_decode_fallback(graph, clean, report)
                    globally_reset = True
                else:
                    working = patched

    def _next_advice_patch(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        node: Node,
        strategies: Dict[Node, Iterator[Tuple[str, int]]],
        advice_actions: List[RepairAction],
        report: RobustnessReport,
    ) -> Optional[AdviceMap]:
        """The next escalation step for ``node``; None when exhausted."""
        schedule = strategies.setdefault(node, self._decode_strategies())
        for kind, radius in schedule:
            if kind == ADVICE_PATCH:
                patched = self.schema.repair_advice(graph, working, node, radius)
            else:
                patched = self._refetch_ball(graph, clean, working, node, radius)
            if patched is None or patched == working:
                continue
            action = RepairAction(kind, node, radius, success=False)
            advice_actions.append(action)
            report.actions.append(action)
            return dict(patched)
        return None

    def _refetch_ball(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Re-request the prover's bits for one ball (None if no diff)."""
        ball = graph.ball(node, radius)
        if all(working.get(u, "") == clean.get(u, "") for u in ball):
            return None
        patched = dict(working)
        for u in ball:
            patched[u] = clean.get(u, "")
        return patched

    def _global_decode_fallback(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        report: RobustnessReport,
    ) -> AdviceMap:
        report.escalated = True
        action = RepairAction(GLOBAL_RESOLVE, None, -1, success=True, detail="decode")
        report.actions.append(action)
        return {v: clean.get(v, "") for v in graph.nodes()}

    # -- stage 2: advice re-request + re-decode ------------------------------

    def _refetch_and_redecode(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        labeling: Dict[Node, Label],
        problem: Optional[LCLProblem],
        report: RobustnessReport,
    ) -> Tuple[Dict[Node, Label], AdviceMap, bool]:
        """Residual violations: re-request advice around them and re-decode."""
        schema = self.schema
        registry = self.registry
        bad = self._violations(graph, problem, labeling)
        anchors = bad if bad else sorted(graph.nodes(), key=graph.id_of)[:1]
        for radius in self.refetch_radii:
            patched = dict(working)
            changed = False
            for v in anchors:
                ball_patch = self._refetch_ball(graph, clean, patched, v, radius)
                if ball_patch is not None:
                    patched = ball_patch
                    changed = True
            if not changed:
                continue
            try:
                with self.tracer.span(
                    "repair", kind=ADVICE_REFETCH, radius=radius
                ):
                    redecoded = schema.decode(graph, patched)
            except AdviceError:
                continue
            candidate = dict(redecoded.labeling)
            if self._valid(graph, candidate):
                seed_node = anchors[0] if anchors else None
                report.actions.append(
                    RepairAction(ADVICE_REFETCH, seed_node, radius, True)
                )
                registry.counter("repairs_local_total").inc()
                registry.histogram("repair_radius").observe(radius)
                return candidate, patched, True
            report.actions.append(
                RepairAction(
                    ADVICE_REFETCH,
                    anchors[0] if anchors else None,
                    radius,
                    False,
                )
            )
        return labeling, working, False
