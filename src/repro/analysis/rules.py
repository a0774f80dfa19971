"""Rule catalog for the locality & order-invariance linter.

Every rule statically verifies one clause of the LOCAL-model contract the
reproduction rests on (see ``docs/static_analysis.md`` for the catalog
with paper references):

* **LOC001** — a view decoder reads global graph state (``View.graph_n``,
  ``View.graph_max_degree``, the gated ``global_knowledge()`` accessor, or
  a closed-over graph object) without a
  :func:`~repro.local.views.uses_global_knowledge` waiver.  A T-round
  LOCAL algorithm is *by definition* a function of the radius-T view
  alone; undeclared global reads silently break that equivalence.
* **LOC002** — nondeterminism inside a decoder: module-level ``random``,
  wall-clock time, ``id()``/``hash()``, or iteration over an unordered
  ``set`` where the order can leak into the output.
* **LOC003** — a per-node view decoder mutates shared state (``global`` /
  ``nonlocal`` declarations, or writes through closed-over objects):
  nodes of a LOCAL algorithm cannot share memory.
* **ORD001** — a ``mark_order_invariant`` target does arithmetic on raw
  identifier values or compares an identifier against a constant.
  Order-invariant algorithms (Section 8) may only use the *relative
  order* of identifiers; raw-value arithmetic breaks the Ramsey
  conversion and poisons signature-keyed lookup tables and failure
  fingerprints.
* **ORD002** — an order-invariance claim not backed by the dynamic check:
  the ``mark_order_invariant`` target is not registered in
  :data:`repro.analysis.fuzz.ORDER_INVARIANCE_CHECKED`, so nothing ever
  tests the claim that signature-keyed lookup tables rely on.
* **WVR001** — a waiver decorator without a justification string.

Checkers operate on :class:`FunctionInfo` records produced by
:mod:`repro.analysis.engine`; they are pure AST passes and never import
the code under analysis.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "FunctionInfo",
    "check_function",
]

_BUILTIN_NAMES = set(dir(builtins))

#: names under which decoders typically close over whole-graph objects
GRAPH_LIKE_NAMES = {"graph", "g", "local_graph", "lgraph", "host_graph"}

#: attribute accesses that betray a LocalGraph-shaped object
GRAPH_METHOD_NAMES = {
    "ball",
    "ball_subgraph",
    "bfs_layers",
    "compiled",
    "components",
    "edges",
    "id_of",
    "input_of",
    "max_degree",
    "neighbors",
    "node_of",
    "nodes",
    "port_of",
    "sphere",
}

#: callables whose result does not depend on the iteration order of their
#: (unordered) argument — generators over sets may feed these safely
ORDER_INSENSITIVE_CONSUMERS = {
    "all",
    "any",
    "frozenset",
    "len",
    "max",
    "min",
    "set",
    "sorted",
    "sum",
}

#: names importable from the stdlib ``random`` module that we recognize in
#: ``from random import ...`` form
_RANDOM_FUNCTIONS = {
    "betavariate",
    "choice",
    "choices",
    "gauss",
    "getrandbits",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "uniform",
}


@dataclass(frozen=True)
class Rule:
    """One entry of the catalog: code, one-line title, and rationale."""

    code: str
    title: str
    rationale: str
    waivable: bool = True


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "LOC001",
            "decoder reads global graph state without a waiver",
            "A T-round LOCAL algorithm is a pure function of its radius-T "
            "view (paper §3.2); undeclared reads of n/Delta or a closed-over "
            "graph silently widen the decoder's input.",
        ),
        Rule(
            "LOC002",
            "nondeterminism in a view algorithm",
            "Unseeded randomness, wall-clock time, id()/hash(), and "
            "set-iteration order make decode runs non-reproducible and can "
            "diverge between the view and message-passing engines.",
        ),
        Rule(
            "LOC003",
            "per-node decoder mutates shared state",
            "Nodes of a LOCAL algorithm share no memory; writing through a "
            "closure or global from inside a per-node decide() couples nodes "
            "outside the communication graph.",
        ),
        Rule(
            "ORD001",
            "order-invariant target uses raw identifier values",
            "Section 8's Ramsey conversion only permits *relative order* of "
            "identifiers; arithmetic or absolute comparisons on id values "
            "break order-invariance and poison signature-keyed lookup tables.",
        ),
        Rule(
            "ORD002",
            "order-invariance claim not backed by the dynamic check",
            "mark_order_invariant is an unchecked promise unless the target "
            "is registered in repro.analysis.fuzz.ORDER_INVARIANCE_CHECKED, "
            "whose harness re-runs it under identifier re-assignments.",
        ),
        Rule(
            "LOC101",
            "decoder radius exceeds the declared LocalityContract",
            "The contract's T is the paper's decode radius (Def. 3.2) and "
            "the serving cost O(Delta^T) depends on it; a decoder whose "
            "certified hop bound exceeds — or whose declaration is looser "
            "than — the certified value makes every downstream latency "
            "claim unsound.",
            waivable=False,
        ),
        Rule(
            "LOC102",
            "encoder advice exceeds the declared bit budget",
            "beta bounds the per-node advice length (Def. 3.2); an encoder "
            "that can emit more bits than the contract declares silently "
            "breaks the compression guarantees built on top of it.",
            waivable=False,
        ),
        Rule(
            "LOC103",
            "decoder traversal not statically bounded",
            "A loop or view access whose radius the certifier cannot close "
            "over means T is effectively unbounded; supply a "
            "locality_hints bound (audited by the dynamic witness) or "
            "restructure the decoder.",
            waivable=False,
        ),
        Rule(
            "WVR001",
            "waiver without a justification string",
            "Every contract exemption must explain itself in the report; an "
            "unjustified waiver is indistinguishable from a silenced bug.",
            waivable=False,
        ),
    )
}


@dataclass
class Violation:
    """One finding: a rule, a location, and the offending function."""

    rule: str
    message: str
    path: str
    line: int
    function: str
    context: str = ""
    waived: bool = False
    waiver_reason: str = ""
    def_line: int = 0
    def_indent: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "title": RULES[self.rule].title if self.rule in RULES else "",
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "context": self.context,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }

    def format(self) -> str:
        tag = f" [waived: {self.waiver_reason}]" if self.waived else ""
        return (
            f"{self.path}:{self.line}: {self.rule} in {self.function}: "
            f"{self.message}{tag}"
        )


@dataclass
class FunctionInfo:
    """Everything a rule checker needs to know about one function."""

    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    qualname: str
    module: str
    path: str
    params: List[str] = field(default_factory=list)
    contexts: Set[str] = field(default_factory=set)
    waivers: Dict[str, str] = field(default_factory=dict)
    malformed_waiver_lines: List[int] = field(default_factory=list)
    local_names: Set[str] = field(default_factory=set)
    free_names: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    global_decls: List[Tuple[str, int]] = field(default_factory=list)
    nonlocal_decls: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def ref(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def view_params(self) -> Set[str]:
        return {p for p in self.params if p == "view" or p.endswith("_view")}


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _own_statements(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk the function body without descending into nested functions or
    classes (those are separate scopes with their own FunctionInfo)."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _SetTracker:
    """Best-effort tracking of names statically known to hold ``set``s."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.set_names: Set[str] = set()
        args = getattr(fn.node, "args", None)
        if args is not None:
            for a in list(getattr(args, "posonlyargs", [])) + list(args.args):
                if a.annotation is not None and _annotation_is_set(a.annotation):
                    self.set_names.add(a.arg)
        for node in _own_statements(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self._is_set_expr(node.value):
                        self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_set(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value)
                ):
                    self.set_names.add(node.target.id)

    def _is_set_expr(self, node: ast.AST) -> bool:
        return is_set_expression(node, self.fn, self.set_names)


def _annotation_is_set(annotation: ast.AST) -> bool:
    """``Set[...]`` / ``FrozenSet[...]`` / ``set`` annotations."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Name):
        return annotation.id in {"Set", "FrozenSet", "set", "frozenset"}
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in {"Set", "FrozenSet"}
    return False


def is_set_expression(
    node: ast.AST, fn: FunctionInfo, set_names: Optional[Set[str]] = None
) -> bool:
    """Whether ``node`` statically denotes an unordered ``set``-like value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in {"set", "frozenset"}:
            return True
        return False
    if isinstance(node, ast.Attribute):
        # ``view.nodes`` / ``view.edges`` are frozensets on View.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in fn.view_params
            and node.attr in {"nodes", "edges"}
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expression(node.left, fn, set_names) or is_set_expression(
            node.right, fn, set_names
        )
    if isinstance(node, ast.Name) and set_names is not None:
        return node.id in set_names
    return False


class _IdTracker:
    """Expressions carrying *raw identifier values* inside a function.

    Seeds: ``view.id_of(...)`` / ``graph.id_of(...)`` calls, ``*.ids[...]``
    subscripts, ``ctx.node_id`` attributes — plus names assigned from such
    expressions.
    """

    def __init__(self, fn: FunctionInfo) -> None:
        self.id_names: Set[str] = set()
        changed = True
        while changed:  # fixpoint over simple name assignments
            changed = False
            for node in _own_statements(fn.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in self.id_names
                        and self.is_id_valued(node.value)
                    ):
                        self.id_names.add(target.id)
                        changed = True

    def is_id_valued(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "id_of":
                return True
            return False
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "ids":
                return True
            if isinstance(value, ast.Name) and value.id == "ids":
                return True
            return False
        if isinstance(node, ast.Attribute):
            return node.attr == "node_id"
        if isinstance(node, ast.Name):
            return node.id in self.id_names
        return False


# ---------------------------------------------------------------------------
# The checkers
# ---------------------------------------------------------------------------


def check_function(
    fn: FunctionInfo,
    parent_of: Dict[ast.AST, ast.AST],
    random_aliases: Set[str],
    time_aliases: Set[str],
) -> Iterator[Violation]:
    """Run every applicable rule on one function."""
    for line in fn.malformed_waiver_lines:
        yield _violation(fn, "WVR001", line, "waiver carries no justification string")

    in_view = "view" in fn.contexts or "view-helper" in fn.contexts
    in_decode = "decode" in fn.contexts or "decode-helper" in fn.contexts
    in_ord = "order-invariant" in fn.contexts

    if in_view:
        yield from _check_loc001(fn)
        yield from _check_loc003(fn)
    if in_view or in_decode or in_ord:
        yield from _check_loc002(fn, parent_of, random_aliases, time_aliases)
    if in_ord:
        yield from _check_ord001(fn)


def _violation(fn: FunctionInfo, rule: str, line: int, message: str) -> Violation:
    waived = rule in fn.waivers and RULES[rule].waivable
    return Violation(
        rule=rule,
        message=message,
        path=fn.path,
        line=line,
        function=fn.qualname,
        context=",".join(sorted(fn.contexts)),
        waived=waived,
        waiver_reason=fn.waivers.get(rule, "") if waived else "",
        def_line=getattr(fn.node, "lineno", line),
        def_indent=getattr(fn.node, "col_offset", 0),
    )


def _check_loc001(fn: FunctionInfo) -> Iterator[Violation]:
    for node in _own_statements(fn.node):
        if isinstance(node, ast.Attribute) and node.attr in (
            "graph_n",
            "graph_max_degree",
        ):
            yield _violation(
                fn,
                "LOC001",
                node.lineno,
                f"reads View.{node.attr} (global graph state) — declare it "
                "with @uses_global_knowledge or derive it from the view",
            )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "global_knowledge"
            ):
                yield _violation(
                    fn,
                    "LOC001",
                    node.lineno,
                    "calls View.global_knowledge() — needs an explicit "
                    "@uses_global_knowledge waiver",
                )
    # Closure inspection: loads of names bound in an enclosing scope (or
    # missing entirely) that look like whole-graph objects.
    flagged: Set[str] = set()
    for node in _own_statements(fn.node):
        name: Optional[str] = None
        line = getattr(fn.node, "lineno", 0)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in fn.free_names
            and node.attr in GRAPH_METHOD_NAMES
        ):
            name, line = node.value.id, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in fn.free_names and node.id in GRAPH_LIKE_NAMES:
                name, line = node.id, node.lineno
        if name is not None and name not in flagged:
            flagged.add(name)
            yield _violation(
                fn,
                "LOC001",
                line,
                f"closes over graph-like object {name!r}: a view decoder "
                "must be a pure function of its View argument",
            )


def _check_loc002(
    fn: FunctionInfo,
    parent_of: Dict[ast.AST, ast.AST],
    random_aliases: Set[str],
    time_aliases: Set[str],
) -> Iterator[Violation]:
    tracker = _SetTracker(fn)

    def is_set(node: ast.AST) -> bool:
        return is_set_expression(node, fn, tracker.set_names)

    for node in _own_statements(fn.node):
        if isinstance(node, ast.For) and is_set(node.iter):
            yield _violation(
                fn,
                "LOC002",
                node.lineno,
                "for-loop over an unordered set — iterate a sorted copy "
                "(e.g. sorted(s, key=ids)) so the order cannot leak into "
                "the output",
            )
        elif isinstance(node, ast.ListComp):
            if any(is_set(gen.iter) for gen in node.generators):
                yield _violation(
                    fn,
                    "LOC002",
                    node.lineno,
                    "list built from an unordered set — the element order "
                    "is interpreter-dependent",
                )
        elif isinstance(node, ast.GeneratorExp):
            if any(is_set(gen.iter) for gen in node.generators):
                parent = parent_of.get(node)
                consumer = (
                    _call_name(parent) if isinstance(parent, ast.Call) else None
                )
                if consumer not in ORDER_INSENSITIVE_CONSUMERS:
                    yield _violation(
                        fn,
                        "LOC002",
                        node.lineno,
                        "generator over an unordered set feeds an "
                        "order-sensitive consumer",
                    )
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args
                and is_set(node.func.value)
            ):
                yield _violation(
                    fn,
                    "LOC002",
                    node.lineno,
                    "set.pop() removes an arbitrary element — pick "
                    "min/max by identifier instead",
                )
            elif isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                base = node.func.value.id
                if base in random_aliases:
                    if not (node.func.attr == "Random" and node.args):
                        yield _violation(
                            fn,
                            "LOC002",
                            node.lineno,
                            f"module-level randomness ({base}.{node.func.attr}) "
                            "in a decoder — thread an explicitly seeded "
                            "random.Random instead",
                        )
                elif base in time_aliases:
                    yield _violation(
                        fn,
                        "LOC002",
                        node.lineno,
                        f"wall-clock read ({base}.{node.func.attr}) inside a "
                        "decoder",
                    )
            elif isinstance(node.func, ast.Name):
                if (
                    node.func.id in _RANDOM_FUNCTIONS
                    and node.func.id in random_aliases
                ):
                    yield _violation(
                        fn,
                        "LOC002",
                        node.lineno,
                        f"module-level randomness ({node.func.id}) in a decoder",
                    )
                elif node.func.id in ("id", "hash") and node.func.id not in (
                    fn.local_names
                ):
                    yield _violation(
                        fn,
                        "LOC002",
                        node.lineno,
                        f"{node.func.id}() depends on interpreter state, not "
                        "on the view — use identifiers or order signatures",
                    )


def _check_loc003(fn: FunctionInfo) -> Iterator[Violation]:
    for name, line in fn.global_decls:
        yield _violation(
            fn, "LOC003", line, f"'global {name}' inside a per-node decoder"
        )
    for name, line in fn.nonlocal_decls:
        yield _violation(
            fn, "LOC003", line, f"'nonlocal {name}' inside a per-node decoder"
        )
    mutators = {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "remove",
        "setdefault",
        "update",
    }
    flagged: Set[Tuple[str, int]] = set()

    def base_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    for node in _own_statements(fn.node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators
            ):
                name = base_name(node.func.value)
                if name and name in fn.free_names:
                    key = (name, node.lineno)
                    if key not in flagged:
                        flagged.add(key)
                        yield _violation(
                            fn,
                            "LOC003",
                            node.lineno,
                            f"mutates closed-over object {name!r} "
                            f"(.{node.func.attr}) from inside a per-node "
                            "decoder",
                        )
            continue
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = base_name(target)
                if name and name in fn.free_names:
                    key = (name, node.lineno)
                    if key not in flagged:
                        flagged.add(key)
                        yield _violation(
                            fn,
                            "LOC003",
                            node.lineno,
                            f"writes through closed-over object {name!r} "
                            "from inside a per-node decoder",
                        )


def _check_ord001(fn: FunctionInfo) -> Iterator[Violation]:
    tracker = _IdTracker(fn)

    def id_valued(node: ast.AST) -> bool:
        return tracker.is_id_valued(node)

    for node in _own_statements(fn.node):
        if isinstance(node, ast.BinOp):
            if isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                continue  # string formatting, not identifier arithmetic
            if id_valued(node.left) or id_valued(node.right):
                op = type(node.op).__name__
                yield _violation(
                    fn,
                    "ORD001",
                    node.lineno,
                    f"arithmetic ({op}) on a raw identifier value — "
                    "order-invariant algorithms may only compare "
                    "identifiers by rank",
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            for left, right in zip(operands, operands[1:]):
                lid, rid = id_valued(left), id_valued(right)
                if lid and rid:
                    continue  # id-vs-id comparison is exactly rank order
                other = right if lid else left
                if (lid or rid) and isinstance(other, ast.Constant):
                    yield _violation(
                        fn,
                        "ORD001",
                        node.lineno,
                        "absolute comparison of an identifier against a "
                        "constant — only relative order is available to "
                        "order-invariant algorithms",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"abs", "divmod", "bin", "hex", "oct"} and any(
                id_valued(arg) for arg in node.args
            ):
                yield _violation(
                    fn,
                    "ORD001",
                    node.lineno,
                    f"{node.func.id}() applied to a raw identifier value",
                )
