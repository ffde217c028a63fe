"""Span trees from Chrome events, and self time over them."""

import pytest

from cedarbench import spans


def event(name, cat, ts_us, dur_us, tid=1):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts_us,
            "dur": dur_us, "pid": 1, "tid": tid}


def test_nesting_is_recovered_by_containment_per_lane():
    trace = {"traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name"},
        event("wait", "queue_wait", 0.0, 50_000.0, tid=1),
        event("doc", "document", 50_500.0, 9_000.0, tid=2),
        event("stage", "stage", 50_600.0, 6_000.0, tid=2),
        event("m1", "method", 50_700.0, 1_000.0, tid=2),
        event("llm", "llm_call", 50_800.0, 600.0, tid=2),
        event("m2", "method", 52_000.0, 500.0, tid=2),
    ]}
    roots = spans.chrome_to_trees(trace, epoch=100.0)
    assert sorted(root.kind for root in roots) == ["document", "queue_wait"]
    document = next(root for root in roots if root.kind == "document")
    assert document.start == pytest.approx(100.0505)
    (stage,) = document.children
    assert [child.name for child in stage.children] == ["m1", "m2"]
    assert stage.children[0].children[0].kind == "llm_call"


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = spans.Span("stage", "stage", 0.0, 10.0)
    parent.child("a", "method", 1.0, 5.0)
    parent.child("b", "method", 3.0, 7.0)      # overlaps a: union is 1..7
    parent.child("c", "method", 8.0, 12.0)     # clipped at the parent's end
    assert spans.covered(parent) == pytest.approx(8.0)
    assert spans.self_time(parent) == pytest.approx(2.0)


def test_self_seconds_by_kind_over_nested_chrome_events():
    trace = {"traceEvents": [
        event("doc", "document", 0.0, 10_000.0),
        event("stage", "stage", 1_000.0, 8_000.0),
        event("m", "method", 2_000.0, 4_000.0),
        event("llm", "llm_call", 2_500.0, 3_000.0),
        event("sql", "sql_execute", 5_600.0, 200.0),
    ]}
    totals = spans.self_seconds_by_kind(spans.chrome_to_trees(trace))
    assert totals["document"] == pytest.approx(0.002)
    assert totals["stage"] == pytest.approx(0.004)
    assert totals["method"] == pytest.approx(0.0008)
    assert totals["llm_call"] == pytest.approx(0.003)
    assert totals["sql_execute"] == pytest.approx(0.0002)


def test_where_time_goes_ranks_layers_per_job():
    log = spans.SpanLog()
    for job in range(2):
        root = log.job(f"job-{job}", 0.0, 0.100)
        root.child("wait", "service.queue.wait", 0.001, 0.081)
        verify = root.child("verify", "core.verify", 0.081, 0.0995)
        verify.child("doc", "document", 0.082, 0.098)
    rows = spans.where_time_goes(log.job_roots(), 0.100)
    assert [row["layer"] for row in rows] == [
        "service.queue.wait", "core.document", "core.verify", "job"]
    assert rows[0]["self_ms_per_job"] == pytest.approx(80.0)
    assert rows[0]["share_of_latency"] == pytest.approx(0.8)


def test_chrome_export_puts_overlapping_siblings_on_their_own_lane():
    log = spans.SpanLog()
    root = log.job("job-1", 0.0, 1.0)
    root.child("a", "method", 0.1, 0.6)
    root.child("b", "method", 0.3, 0.8)
    with log.probe("parse", "sqlengine"):
        pass
    events = [e for e in log.to_chrome()["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in events}
    assert by_name["a"]["tid"] == by_name["job:job-1"]["tid"]
    assert by_name["b"]["tid"] != by_name["a"]["tid"]
    assert by_name["parse"]["pid"] != by_name["a"]["pid"]
    assert by_name["job:job-1"]["args"]["self_us"] == pytest.approx(300_000.0)
