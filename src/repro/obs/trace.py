"""Structured event tracing for schema runs and the simulation engine.

A :class:`Tracer` records a tree of *spans* (run → encode/decode/verify →
gather/decide) plus point *events* inside them (a node deciding, a round of
messages delivered, an anchor being read).  Records are plain dicts pushed
to one or more sinks:

* :class:`RingSink` — a bounded in-memory ring, always cheap to keep
  attached; the failure-attribution machinery reads the last events
  touching a node out of it.
* :class:`JsonlSink` — one JSON object per line, the format
  ``python -m repro trace <schema>`` writes and CI uploads as an artifact.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span`` /
``event`` are allocation-free no-ops, so instrumented code paths cost a
single attribute check when tracing is off (the trace-soundness test
bounds the overhead).

Record shapes::

    {"kind": "span",  "name": "decode", "span": 3, "parent": 1,
     "start": 0.0012, "end": 0.0147, "attrs": {...}}
    {"kind": "event", "name": "decide", "span": 3, "t": 0.0031,
     "attrs": {"node": 17}}

Span records are emitted when the span *closes* (so their wall time and
final attributes are known); the tree structure is recovered through the
``span``/``parent`` ids.  A span that exits via an exception closes with
``attrs["error"]`` set to the exception's type name.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional


class Sink:
    """Receives trace records (plain dicts). Subclasses override emit."""

    def emit(self, record: Dict[str, object]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class RingSink(Sink):
    """Keeps the last ``capacity`` records in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self._ring: deque = deque(maxlen=capacity)

    def emit(self, record: Dict[str, object]) -> None:
        self._ring.append(record)

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._ring)

    def matching(
        self, predicate: Callable[[Dict[str, object]], bool]
    ) -> List[Dict[str, object]]:
        """All retained records satisfying ``predicate``, oldest first."""
        return [r for r in self._ring if predicate(r)]

    def touching_node(self, node: object, limit: int = 10) -> List[Dict[str, object]]:
        """The last ``limit`` records whose attrs mention ``node``.

        A record touches a node when ``attrs["node"]`` equals it or
        ``attrs["nodes"]`` contains it — the convention every engine and
        schema emission site follows.
        """
        hits: List[Dict[str, object]] = []
        for record in reversed(self._ring):
            attrs = record.get("attrs") or {}
            if attrs.get("node") == node or (
                isinstance(attrs.get("nodes"), (list, tuple, set, frozenset))
                and node in attrs["nodes"]
            ):
                hits.append(record)
                if len(hits) >= limit:
                    break
        hits.reverse()
        return hits


class JsonlSink(Sink):
    """Appends one JSON object per record to ``path``.

    Non-JSON-serializable attribute values (e.g. tuple node names) are
    rendered through ``repr`` rather than rejected — a trace must never be
    the thing that crashes a run.

    Each record is written as one line in a single line-buffered write, so
    a process that dies mid-run (``os._exit``, SIGKILL, OOM) leaves only
    whole JSON lines behind — the span-export guarantee the serving path
    relies on.  ``flush()`` forces buffered lines to the OS at a safe
    point; ``close()`` (also via ``with``) flushes and closes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # Line buffering: a record is either fully on disk or absent.
        self._fh = open(path, "w", buffering=1)

    def emit(self, record: Dict[str, object]) -> None:
        self._fh.write(json.dumps(record, default=repr) + "\n")

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class LogicalClock:
    """A deterministic monotone clock: every read ticks the counter by one.

    Substituting it for the wall clock (``Tracer(..., clock=LogicalClock())``)
    makes span ``start``/``end`` stamps pure functions of the *sequence* of
    trace operations, so two runs of the same algorithm produce identical
    traces and :class:`repro.obs.profile.WorkProfile` durations measure
    *work* (trace operations elapsed) rather than machine timing.  The
    profile/diff test suites compare runs through exactly this clock.
    """

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0

    def __call__(self) -> float:
        self.ticks += 1
        return float(self.ticks)


class Span:
    """A live span handle; ``set(...)`` attaches attributes before close."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close_span(self)


class Tracer:
    """Emits spans and events to the attached sinks.

    ``enabled`` is the cheap guard instrumented code checks before building
    event payloads; it is ``True`` for every real tracer and ``False`` only
    on :class:`NullTracer`.
    """

    enabled = True

    def __init__(
        self, *sinks: Sink, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.sinks: List[Sink] = list(sinks) or [RingSink()]
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._next_id = 0
        self._stack: List[Span] = []

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _emit(self, record: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def _close_span(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # exception unwound through nested spans
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "span": span.span_id,
                "parent": span.parent_id,
                "start": round(span.start, 9),
                "end": round(self._now(), 9),
                "attrs": span.attrs,
            }
        )

    # -- public API --------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span; use as ``with tracer.span("decode") as sp:``."""
        self._next_id += 1
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self._now(),
            attrs=dict(attrs),
        )
        self._stack.append(span)
        return span

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event inside the current span."""
        self._emit(
            {
                "kind": "event",
                "name": name,
                "span": self._stack[-1].span_id if self._stack else None,
                "t": round(self._now(), 9),
                "attrs": attrs,
            }
        )

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def ring(self) -> Optional[RingSink]:
        """The first attached :class:`RingSink`, if any (for attribution)."""
        for sink in self.sinks:
            if isinstance(sink, RingSink):
                return sink
        return None

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class _NullSpan:
    """Reusable no-op span: supports the same surface as :class:`Span`."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The zero-cost default: every operation is a constant no-op."""

    enabled = False

    def __init__(self) -> None:  # deliberately skip Tracer.__init__
        self.sinks = []

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass

    def annotate(self, **attrs: object) -> None:
        pass

    def ring(self) -> None:
        return None

    def close(self) -> None:
        pass


#: Shared no-op tracer; ``tracer or NULL_TRACER`` is the idiom throughout.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Coerce an optional tracer argument to a usable tracer."""
    return tracer if tracer is not None else NULL_TRACER


# ---------------------------------------------------------------------------
# Reading traces back
# ---------------------------------------------------------------------------


def load_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into records."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def span_tree(records: Iterable[Dict[str, object]]) -> Dict[Optional[int], List[Dict[str, object]]]:
    """Group span records by parent id: ``{parent_id: [children...]}``.

    The roots are under key ``None``.  Children appear in close order,
    which for sequential phases is also execution order.
    """
    tree: Dict[Optional[int], List[Dict[str, object]]] = {}
    for record in records:
        if record.get("kind") == "span":
            tree.setdefault(record.get("parent"), []).append(record)
    return tree


def format_span_tree(records: Iterable[Dict[str, object]]) -> str:
    """Render the span tree as an indented text summary (CLI output)."""
    records = list(records)
    tree = span_tree(records)
    events_per_span: Dict[Optional[int], int] = {}
    for record in records:
        if record.get("kind") == "event":
            span = record.get("span")
            events_per_span[span] = events_per_span.get(span, 0) + 1
    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for span in sorted(tree.get(parent, []), key=lambda s: s["start"]):
            seconds = span["end"] - span["start"]
            n_events = events_per_span.get(span["span"], 0)
            suffix = f"  [{n_events} events]" if n_events else ""
            lines.append(
                f"{'  ' * depth}{span['name']:<24s} {seconds * 1000:9.2f} ms{suffix}"
            )
            walk(span["span"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)
