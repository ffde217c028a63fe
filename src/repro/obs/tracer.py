"""Deterministic span trees for the verification stack.

A :class:`Tracer` records a forest of :class:`Span` objects describing
one run: documents at the roots, then stages, claim attempts, and the
leaf work items (LLM calls, SQL executions, agent steps, tool calls,
plausibility checks, reconstruction, retry backoff). Spans carry wall
times, a status, and typed attributes — but their *identity* is purely
structural: a span's id is its 1-based position under its parent,
joined with dots (``"2.1.3"`` = third child of the first child of the
second root). No clock or RNG ever feeds an id, which is what makes the
house invariant testable: a parallel run and a sequential run of the
same work produce byte-identical trees once wall times are stripped.

Concurrency follows the cost ledger's capture/absorb contract
(:mod:`repro.llm.ledger`): a worker thread records into a private
:class:`SpanDelta` (:meth:`Tracer.capture`), and the coordinating
thread grafts the delta's spans into the tree in submission order
(:meth:`Tracer.absorb`). Span order therefore reflects the *logical*
order of work, not scheduling luck.

Wall times come exclusively from the tracer's injected ``clock``
(default :func:`time.perf_counter`, passed by reference and never
called at import time). cedarlint rule CDL015 enforces that no code in
this package calls ``time.*`` or ``random`` directly.

The hot-path API is deliberately tiny:

* ``with tracer.span(name, kind, attr=...):`` — nested span.
* ``tracer.record(name, kind, start, end, ...)`` — pre-timed leaf span
  (used by the SQL engine, which already times itself).
* ``tracer.annotate(...)`` / ``tracer.annotate_latest(...)`` — attach
  attributes to the open span / the span that just finished.

Layers that may run without any tracing consult
:func:`current_tracer`, which returns the thread's active tracer, the
process default, or the shared :data:`NULL_TRACER` whose every method
is a no-op.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, Mapping

#: Span kinds used across the stack (free-form strings are allowed; these
#: are the taxonomy the reports and tests key on).
KINDS = (
    "document",
    "claim",
    "stage",
    "method",
    "llm_call",
    "sql_execute",
    "agent_step",
    "tool_call",
    "plausibility",
    "reconstruction",
    "retry",
    "queue_wait",
    # Cluster-router spans (docs/observability.md "Distributed tracing").
    "job",
    "admission",
    "route",
    "rpc",
)

#: Attributes whose *values* are derived from wall times (the critical-
#: path annotation). They are stripped alongside ``start``/``end`` by
#: ``include_times=False`` renderings and :func:`strip_times`, so the
#: timeless tree stays byte-identical across runs.
WALL_TIME_ATTRIBUTES = ("critical_path_seconds", "critical_path")

#: Attribute values longer than this are truncated on insert, so a span
#: tree never retains unbounded prompt/SQL text.
MAX_ATTRIBUTE_LENGTH = 200


def _clip(value):
    if isinstance(value, str) and len(value) > MAX_ATTRIBUTE_LENGTH:
        return value[: MAX_ATTRIBUTE_LENGTH - 1] + "…"
    return value


class Span:
    """One timed unit of work. Mutable while open, settled once closed."""

    __slots__ = ("name", "kind", "start", "end", "status", "attributes",
                 "children")

    def __init__(
        self,
        name: str,
        kind: str,
        start: float,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.start = start
        self.end = start
        self.status = "ok"
        self.attributes = attributes if attributes is not None else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attributes) -> "Span":
        for key, value in attributes.items():
            self.attributes[key] = _clip(value)
        return self

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, span_id: str = "1", include_times: bool = True) -> dict:
        """Plain-dict rendering with structural ids assigned on the way.

        ``include_times=False`` drops the wall-time fields — the shape
        the determinism tests compare, and the shape documented as "the
        span tree minus wall times".
        """
        attributes = dict(self.attributes)
        if not include_times:
            for key in WALL_TIME_ATTRIBUTES:
                attributes.pop(key, None)
        record: dict = {
            "span_id": span_id,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "attributes": attributes,
            "children": [
                child.to_dict(f"{span_id}.{index}", include_times)
                for index, child in enumerate(self.children, start=1)
            ],
        }
        if include_times:
            record["start"] = self.start
            record["end"] = self.end
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"children={len(self.children)})")


class SpanDelta:
    """A worker thread's private slice of the tree (see ``capture``)."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list[Span] = []


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span` (hand-rolled for
    speed: the generator-based ``contextmanager`` costs ~2x as much)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)


class Tracer:
    """Builds one deterministic span forest; safe to share across threads.

    Every thread keeps its own open-span stack, so spans started on a
    worker nest under that worker's spans only. Cross-thread structure
    is stitched with :meth:`capture`/:meth:`absorb` — never by wall
    clock — which keeps the forest identical between parallel and
    sequential executions of the same work.
    """

    #: Cheap flag the hot paths branch on; the null tracer overrides it.
    enabled = True

    def __init__(
        self,
        trace_id: str = "trace",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.trace_id = trace_id
        self.clock = clock
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- thread-local state --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _sink(self) -> SpanDelta | None:
        return getattr(self._local, "sink", None)

    def _attach_root(self, span: Span) -> None:
        sink = self._sink()
        if sink is not None:
            sink.spans.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- span construction ---------------------------------------------------

    def span(self, name: str, kind: str, **attributes) -> _SpanHandle:
        """Open a nested span; closes (and attaches) on block exit."""
        span = Span(name, kind, self.clock(),
                    {k: _clip(v) for k, v in attributes.items()})
        self._stack().append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        # Balanced by construction (span() pushes, handle __exit__ pops),
        # but tolerate a foreign pop so a bug degrades to a flat tree
        # rather than an exception inside a finally block.
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._attach_root(span)
        self._local.latest = span

    def record(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        status: str = "ok",
        **attributes,
    ) -> Span:
        """Attach one already-timed leaf span (convenience kwargs form)."""
        for key, value in attributes.items():
            if isinstance(value, str) and len(value) > MAX_ATTRIBUTE_LENGTH:
                attributes[key] = value[: MAX_ATTRIBUTE_LENGTH - 1] + "…"
        span = self.leaf(name, kind, start, end, attributes, status)
        # ``leaf`` skips the bookkeeping for :meth:`annotate_latest`;
        # the cache layer reaches back to spans recorded through here.
        self._local.latest = span
        return span

    def leaf(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        attributes: dict,
        status: str = "ok",
    ) -> Span:
        """Lowest-overhead :meth:`record`: no stack ops, no kwargs packing.

        The caller hands over ownership of ``attributes`` and is
        responsible for clipping any value that may exceed
        :data:`MAX_ATTRIBUTE_LENGTH` (``record`` clips for you; this
        path trusts the caller). Unlike ``record`` it also does not
        update the :meth:`annotate_latest` target. Deliberately flat —
        no helper calls, ``Span`` built without re-entering ``__init__``
        — because the SQL engine invokes this once per execution and
        its cost is exactly the traced-vs-untraced gap
        ``obs.tracing_overhead_pct`` measures.
        """
        span = Span.__new__(Span)
        span.name = name
        span.kind = kind
        span.start = start
        span.end = end
        span.status = status
        span.attributes = attributes
        span.children = []
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].children.append(span)
        else:
            sink = getattr(self._local, "sink", None)
            if sink is not None:
                sink.spans.append(span)
            else:
                with self._lock:
                    self.roots.append(span)
        return span

    def annotate(self, **attributes) -> None:
        """Set attributes on the innermost open span (no-op at top level)."""
        stack = self._stack()
        if stack:
            stack[-1].set(**attributes)

    def annotate_latest(self, **attributes) -> None:
        """Set attributes on this thread's most recently finished span.

        The cache layer uses this to stamp ``cache="miss"`` onto the
        ``llm_call`` span the inner client just closed.
        """
        latest = getattr(self._local, "latest", None)
        if latest is not None:
            latest.set(**attributes)

    # -- capture / absorb (the merge-on-join protocol) -----------------------

    def capture(self) -> "_CaptureHandle":
        """Buffer this thread's spans into a private :class:`SpanDelta`.

        Entering also *activates* this tracer on the worker thread, so
        instrumented lower layers (engine, LLM clients) see it through
        :func:`current_tracer` without any global state.
        """
        return _CaptureHandle(self)

    def absorb(self, delta: SpanDelta) -> None:
        """Graft a captured delta under the current span (or the roots).

        Call in submission order — that is what makes the tree order
        logical rather than temporal.
        """
        stack = self._stack()
        if stack:
            stack[-1].children.extend(delta.spans)
        else:
            sink = self._sink()
            if sink is not None:
                sink.spans.extend(delta.spans)
            else:
                with self._lock:
                    self.roots.extend(delta.spans)

    def activated(self) -> "_ActivationHandle":
        """Make this tracer the thread's :func:`current_tracer`."""
        return _ActivationHandle(self)

    # -- introspection -------------------------------------------------------

    def current_span_name(self) -> str | None:
        """The innermost *open* span's name on this thread, or None.

        Structural span ids do not exist until render time, so the name
        is the stable handle available while work runs — the structured
        logger stamps it onto records as the ``span`` correlation id.
        """
        stack = self._stack()
        return stack[-1].name if stack else None

    def tree(self, include_times: bool = True) -> list[dict]:
        """The finished forest as plain dicts with structural span ids."""
        with self._lock:
            roots = list(self.roots)
        return [
            root.to_dict(str(index), include_times)
            for index, root in enumerate(roots, start=1)
        ]

    def drain_roots(
        self, predicate: Callable[[Span], bool] | None = None
    ) -> list[Span]:
        """Remove and return finished root spans (all, or those matching).

        The service uses this to peel each batch's document spans off a
        shared tracer and file them under the owning job.
        """
        with self._lock:
            if predicate is None:
                drained, self.roots = self.roots, []
            else:
                drained = [s for s in self.roots if predicate(s)]
                self.roots = [s for s in self.roots if not predicate(s)]
        return drained

    def span_count(self) -> int:
        with self._lock:
            return sum(1 for root in self.roots for _ in root.walk())

    def __len__(self) -> int:
        with self._lock:
            return len(self.roots)


class _CaptureHandle:
    __slots__ = ("_tracer", "_delta", "_previous_sink", "_previous_active")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._delta = SpanDelta()

    def __enter__(self) -> SpanDelta:
        tracer = self._tracer
        self._previous_sink = tracer._sink()
        tracer._local.sink = self._delta
        self._previous_active = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = tracer
        return self._delta

    def __exit__(self, *exc_info) -> None:
        self._tracer._local.sink = self._previous_sink
        _ACTIVE.tracer = self._previous_active


class _ActivationHandle:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.tracer = self._previous


class NullTracer(Tracer):
    """A tracer that records nothing; every call is a near-free no-op.

    Instrumented code can call ``tracer.span(...)`` unconditionally —
    when tracing is off it gets this singleton and pays one branch.
    """

    enabled = False

    _NULL_HANDLE: "_NullHandle"

    def __init__(self) -> None:
        super().__init__(trace_id="null")

    def span(self, name: str, kind: str, **attributes) -> "_NullHandle":
        return self._NULL_HANDLE

    def record(self, name, kind, start, end, status="ok", **attributes):
        return _NULL_SPAN

    def leaf(self, name, kind, start, end, attributes, status="ok"):
        return _NULL_SPAN

    def annotate(self, **attributes) -> None:
        pass

    def annotate_latest(self, **attributes) -> None:
        pass

    def capture(self):
        return _NULL_CAPTURE

    def absorb(self, delta) -> None:
        pass


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        pass


class _NullCapture:
    __slots__ = ()

    def __enter__(self) -> SpanDelta:
        return _NULL_DELTA

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = Span("null", "null", 0.0)
_NULL_DELTA = SpanDelta()
_NULL_CAPTURE = _NullCapture()
NullTracer._NULL_HANDLE = _NullHandle()

#: The shared do-nothing tracer.
NULL_TRACER = NullTracer()

# -- ambient tracer ----------------------------------------------------------

_ACTIVE = threading.local()
_DEFAULT: Tracer | None = None


def current_tracer() -> Tracer:
    """The thread's active tracer, else the process default, else null.

    Never returns None: callers branch on ``tracer.enabled`` (a plain
    class attribute — one dict lookup) when they want to skip attribute
    construction entirely.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is not None:
        return tracer
    return _DEFAULT if _DEFAULT is not None else NULL_TRACER


def set_default_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with None) the process-wide fallback tracer.

    Used by CLI front ends (``repro.demo --trace``, the experiment
    runner) that want one trace for everything a process does. Returns
    the previous default so callers can restore it.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer
    return previous


def strip_times(tree: list[dict] | Mapping) -> list[dict] | dict:
    """Recursively drop wall-time fields from a :meth:`Tracer.tree` dump.

    Equivalent to ``tree(include_times=False)`` but usable on an
    already-rendered dump (e.g. one loaded back from JSON). Also drops
    the wall-time-derived attributes (:data:`WALL_TIME_ATTRIBUTES`).
    """
    if isinstance(tree, list):
        return [strip_times(node) for node in tree]
    stripped = {}
    for key, value in tree.items():
        if key in ("start", "end"):
            continue
        if key == "children":
            stripped[key] = strip_times(value)
        elif key == "attributes":
            stripped[key] = {k: v for k, v in value.items()
                             if k not in WALL_TIME_ATTRIBUTES}
        else:
            stripped[key] = value
    return stripped


# -- serialization and analysis helpers --------------------------------------


def span_from_dict(payload: Mapping) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.to_dict` output.

    The cluster router uses this to reconstruct a worker's span tree
    from the wire so it can graft the subtree under its own job root.
    Structural ids are discarded — they are reassigned at render time.
    """
    span = Span(
        str(payload.get("name", "")),
        str(payload.get("kind", "")),
        float(payload.get("start", 0.0)),
        dict(payload.get("attributes") or {}),
    )
    span.end = float(payload.get("end", span.start))
    span.status = str(payload.get("status", "ok"))
    span.children = [span_from_dict(child)
                     for child in payload.get("children", [])]
    return span


def spans_from_dicts(payloads) -> list[Span]:
    return [span_from_dict(payload) for payload in payloads]


def shift_times(span: Span, delta: float) -> Span:
    """Shift a span tree's wall times by ``delta`` seconds, in place.

    Stitching rebases worker-process clocks onto the router's timeline:
    the two monotonic clocks share no epoch, so the router aligns the
    worker's earliest span with the moment its RPC was sent.
    """
    for node in span.walk():
        node.start += delta
        node.end += delta
    return span


def self_time(span: Span) -> float:
    """A span's duration minus its children's (never negative)."""
    child_total = sum(child.duration for child in span.children)
    return max(0.0, span.duration - child_total)


def critical_path(span: Span) -> tuple[float, list[str]]:
    """The heaviest root-to-leaf chain through ``span``.

    Weight is *self time* summed along the chain, so a parent that
    merely wraps its children contributes nothing and the path descends
    to where time was actually spent. Ties break on the first child —
    child order is logical submission order, so the tie-break is
    deterministic.
    """
    own = self_time(span)
    if not span.children:
        return own, [span.name]
    best_seconds, best_chain = -1.0, []
    for child in span.children:
        seconds, chain = critical_path(child)
        if seconds > best_seconds:
            best_seconds, best_chain = seconds, chain
    return own + best_seconds, [span.name] + best_chain


def annotate_critical_path(root: Span) -> Span:
    """Stamp ``critical_path_seconds`` + the chain onto a root span.

    Both values derive from wall times, so they live in
    :data:`WALL_TIME_ATTRIBUTES` and vanish from timeless renderings.
    """
    seconds, chain = critical_path(root)
    root.set(
        critical_path_seconds=round(seconds, 6),
        critical_path=" > ".join(chain),
    )
    return root


def self_time_table(roots) -> list[dict]:
    """Aggregate self time per span name across a forest.

    Rows sort by self time (descending) then name; ``repro.demo
    --trace-summary`` renders this as the per-span cost table.
    """
    totals: dict[str, dict] = {}
    for root in roots:
        for span in root.walk():
            row = totals.setdefault(
                span.name,
                {"name": span.name, "kind": span.kind, "count": 0,
                 "self_seconds": 0.0, "total_seconds": 0.0},
            )
            row["count"] += 1
            row["self_seconds"] += self_time(span)
            row["total_seconds"] += span.duration
    rows = sorted(totals.values(),
                  key=lambda row: (-row["self_seconds"], row["name"]))
    for row in rows:
        row["self_seconds"] = round(row["self_seconds"], 6)
        row["total_seconds"] = round(row["total_seconds"], 6)
    return rows
