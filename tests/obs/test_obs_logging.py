"""Structured logs: record shape, handlers, correlation ids, isolation.

Records are made by stdlib loggers under ``repro``; what is pinned here
is what an operator reads — the JSON line — not how it is produced.
"""

import io
import json
import logging

from repro import VerifierConfig, verify
from repro.llm import CostLedger, RetryPolicy
from repro.obs.logs import FIELD_ORDER, LogRing, attach, detach
from repro.obs.tracer import Tracer, set_default_tracer

log = logging.getLogger("repro.test")


def lines(ring, n=None):
    return [json.loads(line) for line in ring.to_ndjson(n).splitlines()]


# -- the record shape ---------------------------------------------------------


def test_record_key_order_is_canonical_then_sorted_extras():
    ring = attach(LogRing())
    tracer = Tracer(trace_id="t")
    previous = set_default_tracer(tracer)
    try:
        with tracer.span("s", "document"):
            log.info("e", extra={"fields": {
                "zzz": 1, "aaa": 2, "mmm": 3, "job_id": "j",
            }})
    finally:
        set_default_tracer(previous)
    raw = ring.to_ndjson().strip()
    keys = list(json.loads(raw))
    assert keys == list(FIELD_ORDER) + ["aaa", "mmm", "zzz"]
    record = json.loads(raw)
    assert record["level"] == "info"
    assert record["component"] == "test"     # the logger name under repro
    assert record["event"] == "e"


def test_none_correlation_ids_are_omitted():
    ring = attach(LogRing())
    log.info("e")
    (record,) = lines(ring)
    assert list(record) == ["ts", "level", "component", "event"]


# -- handlers -----------------------------------------------------------------


def test_ring_buffer_keeps_only_the_last_capacity_records():
    ring = attach(LogRing(capacity=3))
    for index in range(5):
        log.info("tick", extra={"fields": {"n": index}})
    assert len(ring.records) == 3
    assert [r["n"] for r in lines(ring)] == [2, 3, 4]
    assert [r["n"] for r in lines(ring, 2)] == [3, 4]
    assert lines(ring, 0) == []


def test_file_sink_appends_ndjson(tmp_path):
    path = tmp_path / "svc.log"
    handler = attach(logging.FileHandler(path, encoding="utf-8"))
    log.info("first", extra={"fields": {"n": 1}})
    log.error("second", extra={"fields": {"n": 2}})
    detach(handler)
    parsed = [json.loads(line)
              for line in path.read_text().strip().splitlines()]
    assert [r["event"] for r in parsed] == ["first", "second"]
    assert parsed[1]["level"] == "error"


def test_broken_sink_never_raises_into_the_caller(capsys):
    stream = io.StringIO()
    attach(logging.StreamHandler(stream))
    stream.close()                   # every write now fails
    healthy = attach(LogRing())
    log.info("survives")
    assert [r["event"] for r in lines(healthy)] == ["survives"]
    capsys.readouterr()              # stdlib reports the failure there


def test_level_threshold_filters_and_no_sinks_is_a_noop():
    log.info("dropped_without_handlers")  # must not raise
    ring = attach(LogRing())
    logging.getLogger("repro").setLevel(logging.WARNING)
    log.debug("too_low")
    log.info("still_too_low")
    log.warning("kept")
    log.error("also_kept")
    assert [r["event"] for r in lines(ring)] == ["kept", "also_kept"]
    detach(ring)
    log.error("after_removal")
    assert len(ring.records) == 2


def test_detach_restores_the_repro_logger():
    logger = logging.getLogger("repro")
    before = (list(logger.handlers), logger.level)
    ring = attach(LogRing())
    assert logger.level == logging.DEBUG    # the ring serves debug lines
    detach(ring)
    assert (list(logger.handlers), logger.level) == before


# -- correlation ids ----------------------------------------------------------


def test_records_carry_ambient_trace_and_span():
    ring = attach(LogRing())
    tracer = Tracer(trace_id="trace-test")
    previous = set_default_tracer(tracer)
    try:
        with tracer.span("document:0", "document"):
            with tracer.span("claim:1", "claim"):
                log.info("inside")
        log.info("outside")
    finally:
        set_default_tracer(previous)
    inside, outside = lines(ring)
    assert inside["trace_id"] == "trace-test"
    assert inside["span"] == "claim:1"        # innermost open span's name
    assert outside["trace_id"] == "trace-test"
    assert "span" not in outside              # nothing open any more


def test_explicit_trace_id_wins_over_ambient():
    ring = attach(LogRing())
    log.info("no_tracer_minted_id",
             extra={"fields": {"trace_id": "trace-000042"}})
    tracer = Tracer(trace_id="trace-ambient")
    previous = set_default_tracer(tracer)
    try:
        log.info("explicit_beats_ambient",
                 extra={"fields": {"trace_id": "trace-000043"}})
    finally:
        set_default_tracer(previous)
    minted, explicit = lines(ring)
    assert minted["trace_id"] == "trace-000042"
    assert list(minted) == ["ts", "level", "component", "event",
                            "trace_id"]       # not duplicated in extras
    assert explicit["trace_id"] == "trace-000043"


def test_job_id_lands_in_the_dedicated_field():
    ring = attach(LogRing())
    log.info("job", extra={"fields": {"job_id": 42, "shard": 3}})
    (record,) = lines(ring)
    assert record["job_id"] == "42"
    assert list(record)[-2:] == ["job_id", "shard"]


# -- a library run logs nowhere -----------------------------------------------


def test_a_retried_library_run_writes_nothing_to_stderr(capsys,
                                                        monkeypatch,
                                                        retried_once):
    # No handler anywhere (the test runner's own are lifted off the
    # root logger): only the package's NullHandler stands between the
    # llm_retry warning and stdlib's last-resort handler.
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    ledger = CostLedger()
    document, schedule = retried_once(ledger)
    verify([document], schedule=schedule,
           config=VerifierConfig(ledger=ledger,
                                 retry=RetryPolicy(base_delay=0.0)))
    assert ledger.retry_count == 1
    assert capsys.readouterr().err == ""
