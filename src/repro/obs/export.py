"""Exporters: Chrome trace events for span trees, Prometheus text for
the ``/v1/stats`` body.

Both derive from in-memory structures and never feed back into them:

* :func:`to_chrome_trace` — the Chrome trace-event JSON format (an
  object with a ``traceEvents`` array of complete ``"ph": "X"`` events,
  timestamps in microseconds). Loads directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``; each root span
  gets its own track so concurrent documents render side by side.
* :func:`to_prometheus` — the Prometheus text exposition format
  (version 0.0.4) of a ``/v1/stats`` JSON body; this is the body of
  ``GET /v1/metrics`` on both front doors, so the two endpoints can
  never disagree.
"""

from __future__ import annotations

import json
import math
import re
from typing import IO, Mapping

from .tracer import Span, Tracer


# -- Chrome trace events -----------------------------------------------------


def to_chrome_trace(
    source: Tracer | list[Span], process_name: str = "cedar"
) -> dict:
    """Render a tracer (or a list of root spans) as trace-event JSON."""
    roots = source.roots if isinstance(source, Tracer) else list(source)
    events: list[dict] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    epoch = min((span.start for root in roots for span in root.walk()),
                default=0.0)
    for lane, root in enumerate(roots, start=1):
        events.append({
            "ph": "M", "pid": 1, "tid": lane, "name": "thread_name",
            "args": {"name": f"{root.kind}:{root.name}"},
        })
        for span in root.walk():
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round((span.start - epoch) * 1e6, 3),
                "dur": round(max(0.0, span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": lane,
                "args": {**span.attributes, "status": span.status},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source: Tracer | list[Span], path_or_file: str | IO[str],
    process_name: str = "cedar",
) -> None:
    """Serialise :func:`to_chrome_trace` output to a path or open file."""
    payload = to_chrome_trace(source, process_name)
    if hasattr(path_or_file, "write"):
        json.dump(payload, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- Prometheus text exposition ----------------------------------------------

#: Stats paths whose next segment is a worker id, rendered as a label.
_WORKER_KEYED = (("workers",), ("cluster", "shards"))

_UNSAFE = re.compile(r"[^a-zA-Z0-9_]")


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"' for key, value in labels)
    return "{" + body + "}"


def to_prometheus(stats: Mapping) -> str:
    """Render a ``/v1/stats`` JSON body as text exposition.

    Every numeric leaf is one ``gauge`` sample named ``cedar_`` plus its
    dotted path joined with ``_``; booleans render as 0/1, strings and
    ``None`` are skipped. The segment after ``workers`` or
    ``cluster.shards`` is a worker id: it leaves the name and becomes a
    ``worker`` label (``workers.0.jobs.completed`` is
    ``cedar_workers_jobs_completed{worker="0"}``). A
    ``{"bounds", "counts"}`` pair (``latency.buckets``) renders as one
    histogram: cumulative ``_bucket`` samples and a ``_count``. Two
    leaves whose paths join to the same name render once, the first in
    body order (``sql.analyzer.memo_hits`` and ``sql.analyzer_memo.hits``
    count the same memo hits). Samples of one family are grouped under
    one ``# TYPE`` line, and the output ends with a newline, as the
    format requires.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    seen: set[str] = set()

    def emit(path: tuple[str, ...], kind: str, labels: tuple,
             samples: list[tuple[str, tuple, float]]) -> None:
        name = _UNSAFE.sub("_", "_".join(("cedar",) + path))
        lines = families.setdefault(name, (kind, []))[1]
        for suffix, extra, value in samples:
            series = f"{name}{suffix}{_render_labels(labels + extra)}"
            if series not in seen:
                seen.add(series)
                lines.append(f"{series} {_format_value(value)}")

    def visit(node, path: tuple[str, ...], labels: tuple) -> None:
        if isinstance(node, Mapping) and set(node) == {"bounds", "counts"}:
            samples, cumulative = [], 0
            for bound, count in zip([*node["bounds"], math.inf],
                                    node["counts"]):
                cumulative += count
                samples.append(("_bucket", (("le", _format_value(bound)),),
                                cumulative))
            samples.append(("_count", (), cumulative))
            emit(path, "histogram", labels, samples)
        elif isinstance(node, Mapping):
            for key, value in node.items():
                if not labels and path in _WORKER_KEYED:
                    visit(value, path, (("worker", str(key)),))
                else:
                    visit(value, path + (str(key),), labels)
        elif isinstance(node, (bool, int, float)):
            emit(path, "gauge", labels, [("", (), node)])

    visit(stats, (), ())
    lines: list[str] = []
    for name, (kind, samples) in families.items():
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"
