"""Observability: span trees, one stats renderer, structured logs.

This package sits below every other ``repro`` package — nothing here
imports pipeline, service, or engine code — so any layer (LLM client,
SQL engine, HTTP front end) can attach spans or log without import
cycles. What it keeps is what an operator reads (docs/observability.md
has the inventory):

* :mod:`repro.obs.tracer` — deterministic span trees. Span ids are
  parent-scoped sequence numbers (``1``, ``1.2``, ``1.2.3`` …), never
  derived from wall clocks or randomness, so two runs that do the same
  work produce the *same tree* — the integration suite diffs parallel
  vs sequential runs on exactly this property. Wall times come only
  from the tracer's injected clock (enforced by cedarlint CDL015).
* :mod:`repro.obs.export` — Chrome trace-event JSON (loads in Perfetto
  / ``chrome://tracing``) and :func:`to_prometheus`, which renders a
  ``/v1/stats`` body as the text exposition served by
  ``GET /v1/metrics``.
* :mod:`repro.obs.logs` — the stdlib-``logging`` parts a front door
  installs: a JSON formatter with a stable key order, a filter stamping
  trace/span ids from the ambient tracer, and the ring buffer behind
  ``GET /v1/debug/logs``.
"""

from .export import to_chrome_trace, to_prometheus, write_chrome_trace
from .logs import FIELD_ORDER, LogRing, attach, detach
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanDelta,
    Tracer,
    annotate_critical_path,
    critical_path,
    current_tracer,
    self_time_table,
    set_default_tracer,
    shift_times,
    span_from_dict,
    spans_from_dicts,
    strip_times,
)

__all__ = [
    "FIELD_ORDER",
    "LogRing",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanDelta",
    "Tracer",
    "annotate_critical_path",
    "attach",
    "critical_path",
    "current_tracer",
    "detach",
    "self_time_table",
    "set_default_tracer",
    "shift_times",
    "span_from_dict",
    "spans_from_dicts",
    "strip_times",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
]
