"""In-memory spans recorded by the benchmark around calls into each layer.

A traced run installs thin wrappers (:func:`instrument`) around the public
functions the workloads reach — the CSR build, bandwidth metering, ball
gathers, order signatures, each schema's encode/decode/verify, the ball
re-solver — so every call becomes a span with a name, start, end, parent
and op id.  Nothing inside ``src/`` changes; the wrappers are removed when
the traced phase ends.  Spans stay in memory and are written once, at exit.

Span names are ``<layer>.<what>``; the layer is the ``repro`` subpackage
(``local``, ``schemas``, ``obs``, ``lcl``, ``serve``, ``dynamic``,
``faults``, ``core``).  A layer's self time in an op is the summed duration
of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "op", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, op, parent, name, start, attrs):
        self.sid, self.op, self.parent, self.name = sid, op, parent, name
        self.start, self.end, self.attrs = start, start, attrs

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.sid, "op": self.op, "parent": self.parent,
            "name": self.name, "start": self.start, "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Span store for one traced run (single-threaded, so one open stack)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._next_op = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        op = parent.op if parent is not None else self._next_op
        if parent is None:
            self._next_op += 1
        span = Span(len(self.spans), op, parent.sid if parent else None,
                    name, time.perf_counter(), attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- analysis --------------------------------------------------------------

    def ops(self) -> Dict[int, List[Span]]:
        by_op: Dict[int, List[Span]] = {}
        for s in self.spans:
            by_op.setdefault(s.op, []).append(s)
        return by_op

    @staticmethod
    def self_times(spans: List[Span]) -> Dict[str, float]:
        """Per-layer self time (ms) of one op: span minus its children."""
        child_ms: Dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        out: Dict[str, float] = {}
        for s in spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.ms - child_ms.get(s.sid, 0.0)
        return out

    @staticmethod
    def outermost_ms(spans: List[Span], name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name``."""
        by_id = {s.sid: s for s in spans}
        total = 0.0
        for s in spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                total += s.ms
        return total

    @staticmethod
    def first_ms(spans: List[Span], name: str) -> Optional[float]:
        for s in spans:
            if s.name == name:
                return s.ms
        return None

    def write(self, path: str, workload_of_op: Dict[int, str]) -> None:
        """Dump every span, then one self-time line per op, as JSON lines."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s.as_dict(), default=str) + "\n")
            for op, spans in sorted(self.ops().items()):
                root = spans[0]
                out.write(json.dumps({
                    "op": op,
                    "workload": workload_of_op.get(op),
                    "root": root.name,
                    "attrs": root.attrs,
                    "total_ms": root.ms,
                    "self_ms": self.self_times(spans),
                }, default=str) + "\n")


class _Patches:
    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def setattr(self, owner: object, name: str, value: object) -> None:
        # Restore the raw entry of the owner's own namespace (a classmethod
        # descriptor stays a descriptor; an instance falls back to its class).
        had = name in vars(owner)
        old = vars(owner).get(name)

        def undo() -> None:
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

        setattr(owner, name, value)
        self._undo.append(undo)

    def undo_all(self) -> None:
        while self._undo:
            self._undo.pop()()


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator["Instrumentation"]:
    """Wrap the module-level layer entry points for the duration of the block."""
    from repro.advice import schema as advice_schema
    from repro.core import api
    from repro.dynamic import runner as churn_runner
    from repro.faults import runner as robust_runner
    from repro.local.compiled import CompiledGraph
    from repro.local.views import View
    from repro.serve import service

    patches = _Patches()
    inst = Instrumentation(rec, patches)
    from_local = CompiledGraph.from_local
    patches.setattr(CompiledGraph, "from_local",
                    staticmethod(rec.wrap("local.compile", from_local)))
    patches.setattr(advice_schema, "flooding_bandwidth",
                    rec.wrap("obs.bandwidth", advice_schema.flooding_bandwidth))
    patches.setattr(service, "gather_views_batched",
                    rec.wrap("local.gather", service.gather_views_batched))
    patches.setattr(View, "order_signature",
                    rec.wrap("local.signature", View.order_signature))
    patches.setattr(churn_runner, "solve_exact",
                    rec.wrap("lcl.solve", churn_runner.solve_exact))
    patches.setattr(robust_runner, "solve_exact",
                    rec.wrap("lcl.solve", robust_runner.solve_exact))
    make_schema = api.make_schema
    patches.setattr(api, "make_schema",
                    lambda name, **kw: inst.schema(make_schema(name, **kw)))
    try:
        yield inst
    finally:
        patches.undo_all()


class Instrumentation:
    """Handle for wrapping objects created while :func:`instrument` is active."""

    def __init__(self, rec: Recorder, patches: _Patches) -> None:
        self.rec = rec
        self._patches = patches

    def schema(self, schema):
        """Wrap one schema instance's encode / decode / verify."""
        for attr, name in (("encode", "schemas.encode"),
                           ("decode", "schemas.decode"),
                           ("check_solution", "lcl.verify")):
            self._patches.setattr(schema, attr, self.rec.wrap(name, getattr(schema, attr)))
        return schema

    def service(self, svc):
        """Wrap a serving instance's per-view decide function."""
        self._patches.setattr(svc, "_decide", self.rec.wrap("schemas.decide", svc._decide))
        return svc
