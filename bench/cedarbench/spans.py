"""The bench's own spans: recorded in memory, written out at the end.

Per sampled job one root ``job`` span (trace id = job id) with children
``service.http.submit``, ``service.queue.wait``, ``core.verify`` and
``service.events.tail``; the server's own span tree, fetched from
``GET /v1/jobs/<id>/trace`` as Chrome trace events, is rebuilt into a
tree and grafted underneath. Layer probes add one span per call under a
``probes`` trace. Nothing is written while a workload runs.

A span's *self time* is its duration minus the part of that interval
its children cover — the union of the children, because claims of one
document verify in parallel and their spans overlap.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Server span kind (Chrome ``cat``) -> the per-layer metric it feeds.
KIND_METRICS = {
    "queue_wait": "service.queue_wait_span_ms",
    "document": "core.document_self_ms",
    "stage": "core.stage_self_ms",
    "method": "core.method_self_ms",
    "plausibility": "core.plausibility_self_ms",
    "reconstruction": "core.reconstruction_self_ms",
    "llm_call": "llm.llm_call_self_ms",
    "retry": "llm.retry_self_ms",
    "sql_execute": "sqlengine.sql_execute_self_ms",
    "agent_step": "agents.agent_step_self_ms",
    "tool_call": "agents.tool_call_self_ms",
    "admission": "cluster.router.admission_ms",
    "route": "cluster.router.route_ms",
    "rpc": "cluster.router.rpc_submit_ms",
}



def layer_of(kind: str) -> str:
    """The module-named layer a span kind is charged to: the bench's
    own kinds are layer names already; the server's map through
    :data:`KIND_METRICS` (``llm_call`` -> ``llm.llm_call``)."""
    metric = KIND_METRICS.get(kind)
    if metric is None:
        return kind
    for suffix in ("_self_ms", "_span_ms", "_ms"):
        if metric.endswith(suffix):
            return metric[:-len(suffix)]
    return metric


# Chrome events round to a nanosecond; containment needs that much give.
_EPSILON = 2e-9


@dataclass
class Span:
    """One timed interval; ``kind`` is the layer it is charged to."""

    name: str
    kind: str
    start: float                      # seconds (wall clock)
    end: float
    trace_id: str = ""
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def child(self, name: str, kind: str, start: float, end: float) -> "Span":
        span = Span(name, kind, start, max(start, end), self.trace_id)
        self.children.append(span)
        return span


def covered(span: Span) -> float:
    """Seconds of ``span`` that its children cover (union, clipped)."""
    total, reach = 0.0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span) -> float:
    return max(0.0, span.duration - covered(span))


def self_seconds_by_kind(roots: Iterable[Span]) -> dict[str, float]:
    """Self time summed per span kind over whole trees."""
    totals: dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            totals[span.kind] = totals.get(span.kind, 0.0) + self_time(span)
    return totals


def chrome_to_trees(trace: dict, epoch: float = 0.0) -> list[Span]:
    """Rebuild span trees from Chrome ``"ph": "X"`` events.

    The format carries no parent links, so nesting is recovered per
    ``(pid, tid)`` lane by containment: an event's parent is the nearest
    earlier event that fully contains it. ``epoch`` (seconds) is added
    to every timestamp, placing the trace on the caller's clock.
    """
    lanes: dict[tuple, list[Span]] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        start = epoch + float(event["ts"]) / 1e6
        span = Span(str(event.get("name", "")), str(event.get("cat", "")),
                    start, start + float(event.get("dur", 0.0)) / 1e6)
        lanes.setdefault((event.get("pid"), event.get("tid")), []).append(span)
    roots: list[Span] = []
    for lane in lanes.values():
        lane.sort(key=lambda s: (s.start, -s.duration))
        stack: list[Span] = []
        for span in lane:
            while stack and not (
                stack[-1].start - _EPSILON <= span.start
                and span.end <= stack[-1].end + _EPSILON
            ):
                stack.pop()
            (stack[-1].children if stack else roots).append(span)
            stack.append(span)
    return roots


class SpanLog:
    """Every span the bench recorded for one workload."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._probes: Span | None = None

    def job(self, job_id: str, start: float, end: float) -> Span:
        root = Span(f"job:{job_id}", "job", start, end, trace_id=job_id)
        self.roots.append(root)
        return root

    @contextlib.contextmanager
    def probe(self, name: str, kind: str) -> Iterator[None]:
        """Time one layer-probe call as a span of the ``probes`` trace."""
        if self._probes is None:
            now = time.time()
            self._probes = Span("probes", "probes", now, now, "probes")
            self.roots.append(self._probes)
        start = time.time()
        try:
            yield
        finally:
            end = time.time()
            self._probes.child(name, kind, start, end)
            self._probes.end = end

    def job_roots(self) -> list[Span]:
        return [root for root in self.roots if root.kind == "job"]

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON: one process per trace, children that
        overlap a sibling moved to a lane of their own."""
        events: list[dict] = []
        for pid, root in enumerate(self.roots, start=1):
            events.append({"ph": "M", "pid": pid, "tid": 0,
                           "name": "process_name",
                           "args": {"name": root.trace_id or root.name}})
            fresh_lane = itertools.count(1)

            def emit(span: Span, tid: int) -> None:
                events.append({
                    "name": span.name, "cat": span.kind, "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid, "tid": tid,
                    "args": {"trace_id": root.trace_id,
                             "self_us": round(self_time(span) * 1e6, 3)},
                })
                reach = span.start
                for child in sorted(span.children, key=lambda c: c.start):
                    overlaps = child.start + _EPSILON < reach
                    reach = max(reach, child.end)
                    emit(child, next(fresh_lane) if overlaps else tid)

            emit(root, 0)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)


def where_time_goes(job_roots: list[Span],
                    mean_latency_seconds: float) -> list[dict]:
    """Ranked self time per layer over the sampled jobs.

    Rows: layer (span kind), self ms per job, share of mean job latency.
    Parallel claim spans make the shares sum past 1 where work overlaps;
    the table ranks layers, it does not partition the latency.
    """
    if not job_roots:
        return []
    totals = self_seconds_by_kind(job_roots)
    rows = [
        {"layer": layer_of(kind),
         "self_ms_per_job": 1e3 * seconds / len(job_roots),
         "share_of_latency": (seconds / len(job_roots)
                              / mean_latency_seconds
                              if mean_latency_seconds else 0.0)}
        for kind, seconds in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_ms_per_job"], row["layer"]))
    return rows
