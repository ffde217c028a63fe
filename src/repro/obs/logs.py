"""Structured logs through stdlib :mod:`logging`.

Call sites log the stdlib way — ``_log = logging.getLogger(__name__)``
— with the event name as the message and the event's fields under
``extra={"fields": {...}}``::

    _log.info("job_accepted", extra={"fields": {"job_id": job_id}})

The package installs a :class:`logging.NullHandler` on the ``repro``
logger, so a library or experiment run with no handlers writes nothing
(no last-resort lines on stderr). A front door installs its handlers
with :func:`attach`, which adds the three parts this module provides:

* :class:`JsonFormatter` renders one JSON object per record with the
  keys of :data:`FIELD_ORDER` first (``None`` correlation ids omitted),
  then the remaining fields sorted by name;
* :class:`TraceFilter` stamps each record with the ambient tracer's
  ``trace_id`` and the innermost open span's name at the moment it is
  logged (an explicit ``trace_id`` field wins: the cluster router
  correlates by a minted id without activating a tracer);
* :class:`LogRing` keeps the last records for ``GET /v1/debug/logs``
  and formats them only when read, so a hot job pays no JSON encoding.

``--log-file`` is a plain :class:`logging.FileHandler` attached the
same way, so its lines equal the ring's.
"""

from __future__ import annotations

import json
import logging
from collections import deque

from .tracer import current_tracer

#: The canonical leading keys of every rendered record, in order. Extra
#: fields follow, sorted by name. This ordering is part of the log
#: schema (see docs/observability.md) — tests assert on it.
FIELD_ORDER = ("ts", "level", "component", "event",
               "trace_id", "span", "job_id")

#: The logger every ``repro.*`` module logger propagates to.
ROOT_LOGGER = "repro"

#: Records the ``/v1/debug/logs`` ring keeps.
RING_CAPACITY = 512


class JsonFormatter(logging.Formatter):
    """One compact JSON object per record, keys in canonical order."""

    def format(self, record: logging.LogRecord) -> str:
        fields = dict(getattr(record, "fields", None) or {})
        line = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "component": record.name.removeprefix(ROOT_LOGGER + "."),
            "event": record.getMessage(),
        }
        trace_id = fields.pop("trace_id", None)
        if trace_id is None:
            trace_id = getattr(record, "trace_id", None)
        job_id = fields.pop("job_id", None)
        for key, value in (("trace_id", trace_id),
                           ("span", getattr(record, "span", None)),
                           ("job_id", None if job_id is None
                            else str(job_id))):
            if value is not None:
                line[key] = value
        for key in sorted(fields):
            line[key] = fields[key]
        return json.dumps(line, separators=(",", ":"), default=str)


class TraceFilter(logging.Filter):
    """Copy the ambient tracer's id and open span onto each record."""

    def filter(self, record: logging.LogRecord) -> bool:
        tracer = current_tracer()
        if tracer.enabled:
            record.trace_id = tracer.trace_id
            record.span = tracer.current_span_name()
        return True


class LogRing(logging.Handler):
    """The last ``capacity`` records in arrival order, formatted on read."""

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        super().__init__()
        self.records: deque[logging.LogRecord] = deque(maxlen=capacity)

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)

    def to_ndjson(self, n: int | None = None) -> str:
        """The newest ``n`` records (all when None) as ndjson."""
        with self.lock:
            records = list(self.records)
        if n is not None:
            records = records[len(records) - min(n, len(records)):]
        lines = [self.format(record) for record in records]
        return "\n".join(lines) + ("\n" if lines else "")


_FORMATTER = JsonFormatter()
_TRACE_FILTER = TraceFilter()


def attach(handler: logging.Handler) -> logging.Handler:
    """Install ``handler`` on the ``repro`` logger with the JSON format
    and the trace filter, and open the logger to DEBUG (the ring serves
    debug lines). Returns the handler, for :func:`detach`."""
    handler.setFormatter(_FORMATTER)
    handler.addFilter(_TRACE_FILTER)
    logger = logging.getLogger(ROOT_LOGGER)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    return handler


def detach(handler: logging.Handler) -> None:
    """Remove and close ``handler``; once no handler but the package's
    null one is left, the ``repro`` level goes back to NOTSET."""
    logger = logging.getLogger(ROOT_LOGGER)
    logger.removeHandler(handler)
    handler.close()
    if all(isinstance(other, logging.NullHandler)
           for other in logger.handlers):
        logger.setLevel(logging.NOTSET)
