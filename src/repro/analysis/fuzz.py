"""Dynamic cross-checker: re-run decoders under identifier re-assignments.

The static pass (:mod:`repro.analysis.engine`) can only reason about
source text; this module closes the loop at runtime, on two levels:

* **Schema fuzzing** (:func:`fuzz_schema` / :func:`fuzz_all`) — every
  registered schema is re-run on its demo instance under

  - *monotone* identifier remaps (``i -> 2i``, ``i -> 3i + 7``): relative
    order is preserved, so an order-invariant encode→decode pipeline must
    reproduce the **exact same labeling** (the Section 8 equivalence that
    lookup tables and failure fingerprints keyed on order signatures rely
    on), and
  - *random permutations* of the identifier space: the labeling may
    legitimately change, but it must stay a **valid** solution.

  Divergences become ``kind="order-invariance"``
  :class:`~repro.obs.FailureReport` records
  (:func:`repro.obs.failure.build_order_violation_report`), so order bugs
  surface through the same attribution channel as decode errors.

* **Claim harnesses** (:data:`ORDER_INVARIANCE_CHECKED`) — each
  ``mark_order_invariant`` call site in the tree registers a harness here,
  keyed ``"module:qualname"``.  The static rule ORD002 fails any claim
  with no registered harness; :func:`run_order_harnesses` executes them,
  re-checking each claimed function with
  :func:`repro.lower_bounds.is_order_invariant`.  A wrongly-marked
  function does not just return wrong answers — it silently poisons the
  signature-keyed view cache for every run that follows.

Baseline runs also count ``View.global_knowledge()`` reads
(:func:`repro.local.track_global_knowledge`), giving the report a runtime
measurement of LOC001 exposure to set against the static waivers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.api import available_schemas, default_instance, make_schema
from ..local.graph import LocalGraph, Node
from ..local.views import track_global_knowledge
from ..obs.failure import FailureReport, build_order_violation_report
from .engine import inspect_callable

__all__ = [
    "ORDER_INVARIANCE_CHECKED",
    "FuzzResult",
    "fuzz_all",
    "fuzz_schema",
    "order_invariance_checked",
    "run_order_harnesses",
]

#: ``"module:qualname" -> harness`` for every ``mark_order_invariant``
#: claim in the scanned tree.  The harness returns True iff the claim
#: holds empirically; ORD002 fires on claims absent from this registry.
ORDER_INVARIANCE_CHECKED: Dict[str, Callable[[], bool]] = {}


def order_invariance_checked(ref: str) -> Callable:
    """Register a dynamic harness backing one order-invariance claim."""

    def register(harness: Callable[[], bool]) -> Callable[[], bool]:
        ORDER_INVARIANCE_CHECKED[ref] = harness
        return harness

    return register


def run_order_harnesses() -> Dict[str, bool]:
    """Execute every registered harness; ``ref -> held?``."""
    return {ref: bool(harness()) for ref, harness in sorted(ORDER_INVARIANCE_CHECKED.items())}


# ---------------------------------------------------------------------------
# Harnesses: one per mark_order_invariant call site in the tree
# ---------------------------------------------------------------------------


@order_invariance_checked("repro.schemas.two_coloring:_nearest_anchor_color")
def _check_nearest_anchor_color() -> bool:
    from ..graphs import cycle
    from ..lower_bounds import is_order_invariant
    from ..schemas.two_coloring import TwoColoringSchema, _nearest_anchor_color

    schema = TwoColoringSchema(spacing=6)
    graph = LocalGraph(cycle(24), seed=3)
    advice = schema.encode(graph)
    return is_order_invariant(
        graph, schema.spacing - 1, _nearest_anchor_color, advice=advice
    )


@order_invariance_checked(
    "repro.lower_bounds.order_invariant:canonicalize.<locals>.wrapped"
)
def _check_canonicalize_wrapped() -> bool:
    from ..graphs import cycle
    from ..lower_bounds import canonicalize, is_order_invariant

    graph = LocalGraph(cycle(12), seed=1)

    def raw(view):  # order-DEpendent on purpose: reads the raw id value
        return view.id_of(view.center) % 2

    # The probe must be able to tell the difference...
    if is_order_invariant(graph, 1, raw):
        return False
    # ...and rank canonicalization must erase it.
    return is_order_invariant(graph, 1, canonicalize(raw))


@order_invariance_checked(
    "repro.lower_bounds.brute_force:parity_cycle_decoder.<locals>.decide"
)
def _check_parity_cycle_decoder() -> bool:
    from ..graphs import cycle
    from ..lower_bounds import is_order_invariant
    from ..lower_bounds.brute_force import parity_cycle_decoder

    window = 2
    graph = LocalGraph(cycle(12), seed=2)
    # Marks every third node: independent and window-dense on the cycle.
    advice = {v: "1" if v % 3 == 0 else "" for v in graph.nodes()}
    decide = parity_cycle_decoder(window)
    if inspect_callable(decide):  # the factory closure must hold no graph
        return False
    return is_order_invariant(
        graph, 2 * window + 2, decide, advice=advice
    )


# ---------------------------------------------------------------------------
# Whole-schema fuzzing under identifier re-assignments
# ---------------------------------------------------------------------------

#: monotone remaps: order-preserving, so labelings must match exactly
_MONOTONE_REMAPS: Sequence[Callable[[int], int]] = (
    lambda i: 2 * i,
    lambda i: 3 * i + 7,
)


@dataclass
class FuzzResult:
    """Outcome of fuzzing one schema under identifier re-assignments."""

    schema: str
    n: int
    seed: int
    checks: List[str] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    global_knowledge_reads: int = 0
    runtime_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.runtime_violations

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "n": self.n,
            "seed": self.seed,
            "checks": list(self.checks),
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
            "global_knowledge_reads": self.global_knowledge_reads,
            "runtime_violations": list(self.runtime_violations),
        }


def _first_divergence(
    graph: LocalGraph,
    baseline: Dict[Node, object],
    remapped: Dict[Node, object],
) -> Optional[Node]:
    for v in sorted(graph.nodes(), key=graph.id_of):
        if baseline.get(v) != remapped.get(v):
            return v
    return None


def fuzz_schema(
    name: str, n: int = 48, seed: int = 0, permutations: int = 2
) -> FuzzResult:
    """Fuzz one registered schema under identifier re-assignments."""
    graph, kwargs = default_instance(name, n, seed)
    schema = make_schema(name, **kwargs)
    result = FuzzResult(schema=name, n=graph.n, seed=seed)
    for violation in inspect_callable(
        getattr(type(schema), "decode", schema.decode), name=f"{name}.decode"
    ):
        if not violation.waived:
            result.runtime_violations.append(violation.format())

    with track_global_knowledge() as reads:
        baseline = schema.run(graph, check=True)
    result.global_knowledge_reads = len(reads)
    result.checks.append("baseline")
    if not baseline.valid:
        result.failures.extend(baseline.failures)
        return result

    ids = graph.ids()
    inputs = {v: graph.input_of(v) for v in graph.nodes()}

    for remap in _MONOTONE_REMAPS:
        mapping = {v: remap(i) for v, i in ids.items()}
        renamed = LocalGraph(graph.graph, ids=mapping, inputs=inputs)
        run = schema.run(renamed, check=True)
        result.checks.append("monotone-remap")
        bad = _first_divergence(renamed, baseline.result.labeling, run.result.labeling)
        if bad is not None or not run.valid:
            result.failures.append(
                build_order_violation_report(
                    name,
                    renamed,
                    run.advice,
                    bad,
                    baseline.result.labeling.get(bad),
                    run.result.labeling.get(bad),
                    check="monotone identifier remap",
                )
            )
    rng = random.Random(seed * 7919 + 13)
    for _ in range(permutations):
        values = list(ids.values())
        rng.shuffle(values)
        mapping = dict(zip(ids.keys(), values))
        renamed = LocalGraph(graph.graph, ids=mapping, inputs=inputs)
        run = schema.run(renamed, check=True)
        result.checks.append("random-permutation")
        if not run.valid:
            node = run.failures[0].node if run.failures else None
            result.failures.append(
                build_order_violation_report(
                    name,
                    renamed,
                    run.advice,
                    node,
                    baseline.result.labeling.get(node),
                    run.result.labeling.get(node),
                    check="random identifier permutation",
                )
            )
    return result


def fuzz_all(
    names: Optional[Sequence[str]] = None,
    n: int = 48,
    seed: int = 0,
    permutations: int = 2,
) -> List[FuzzResult]:
    """Fuzz every (or the given) registered schema; see :func:`fuzz_schema`."""
    return [
        fuzz_schema(name, n=n, seed=seed, permutations=permutations)
        for name in (names if names is not None else available_schemas())
    ]
