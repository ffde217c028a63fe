"""Service-level observability: per-job traces, /v1/metrics, logs.

The inline-drain tests use a never-started service (submissions queue
up; ``shutdown(drain=True)`` runs them on the calling thread), the same
deterministic harness as ``test_service.py``. The HTTP tests boot a
real server on a free port and scrape the new endpoints over sockets.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import CostLedger, RetryPolicy
from repro.obs.export import to_prometheus
from repro.obs.logs import LogRing, attach
from repro.service import ServiceConfig, VerificationService, clone_document
from repro.service.http import ServiceApp, make_server

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def make_bundle():
    return build_aggchecker(document_count=3, total_claims=12)


def make_service(bundle, seed=0, **config_kwargs):
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(ledger=ledger,
                                                **config_kwargs))
    system = build_cedar(bundle, seed=seed,
                        config=VerifierConfig(ledger=ledger))
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    return service, schedule


def drain_one_job(**config_kwargs):
    bundle = make_bundle()
    service, schedule = make_service(bundle, **config_kwargs)
    handle = service.submit(
        clone_document(bundle.documents[0], "obs"), schedule
    )
    service.shutdown(drain=True)
    assert handle.state == "completed"
    return service, handle


class TestJobTraces:
    def test_completed_job_carries_queue_wait_and_document_spans(self):
        _, handle = drain_one_job()
        spans = handle.spans()
        kinds = [span.kind for span in spans]
        assert kinds == ["queue_wait", "document"]
        wait, document = spans
        assert wait.attributes["job_id"] == handle.job_id
        assert wait.duration >= 0.0
        nested = {span.kind for span in document.walk()}
        assert {"stage", "method", "llm_call"} <= nested

    def test_tracing_off_files_no_spans(self):
        _, handle = drain_one_job(tracing=False)
        assert handle.spans() == []

    def test_spans_route_to_the_owning_job(self):
        bundle = make_bundle()
        service, schedule = make_service(bundle)
        handles = [
            service.submit(
                clone_document(bundle.documents[i], f"own{i}"), schedule
            )
            for i in range(3)
        ]
        service.shutdown(drain=True)
        for handle in handles:
            documents = [s for s in handle.spans()
                         if s.kind == "document"]
            assert len(documents) == 1
            waits = [s for s in handle.spans() if s.kind == "queue_wait"]
            assert waits and waits[0].attributes["job_id"] \
                == handle.job_id


class TestServiceMetrics:
    def test_stats_include_retry_backoff_seconds(self):
        service, _ = drain_one_job()
        ledger = service.stats().to_dict()["ledger"]
        assert "retry_backoff_seconds" in ledger
        assert ledger["retry_backoff_seconds"] >= 0.0

    def test_metrics_cover_the_stack(self):
        service, _ = drain_one_job()
        samples = dict(
            line.rsplit(" ", 1)
            for line in to_prometheus(service.stats().to_dict()).splitlines()
            if not line.startswith("#")
        )
        assert float(samples["cedar_ledger_calls"]) > 0
        assert samples["cedar_jobs_completed"] == "1"
        assert "cedar_queue_depth" in samples
        assert "cedar_sql_plan_cache_hits" in samples
        assert samples["cedar_latency_buckets_count"] == "1"

    def test_prometheus_rendering_of_live_stats(self):
        service, _ = drain_one_job()
        text = to_prometheus(service.stats().to_dict())
        assert text.endswith("\n")
        assert "# TYPE cedar_jobs_completed gauge" in text
        assert "cedar_jobs_completed 1" in text
        assert "# TYPE cedar_latency_buckets histogram" in text
        assert 'cedar_latency_buckets_bucket{le="+Inf"} 1' in text
        assert "cedar_cache_hits " in text
        # No persistent tier configured: no tier samples.
        assert "_tiers_" not in text

    def test_tier_metrics_when_persistent(self, tmp_path):
        service, _ = drain_one_job(
            cache_db=str(tmp_path / "l2.sqlite"),
        )
        text = to_prometheus(service.stats().to_dict())
        for prefix in ("cedar_cache", "cedar_sql_result_cache"):
            for tier in ("l1", "l2"):
                assert f"{prefix}_tiers_{tier}_hits " in text, (prefix, tier)


class TestLogs:
    def test_trace_and_span_filled_inside_a_traced_batch(self,
                                                         retried_once):
        ring = attach(LogRing())
        ledger = CostLedger()
        service = VerificationService(ServiceConfig(
            ledger=ledger, retry=RetryPolicy(base_delay=0.0),
        ))
        service.submit(*retried_once(ledger))
        service.shutdown(drain=True)
        records = [json.loads(line)
                   for line in ring.to_ndjson().splitlines()]
        by_event = {record["event"]: record for record in records}
        retry = by_event["llm_retry"]
        assert retry["component"] == "llm.resilience"
        assert retry["trace_id"] == by_event["job_finished"]["job_id"]
        assert retry["span"]                  # the open span, by name
        accepted = by_event["job_accepted"]   # logged before the job runs
        assert "trace_id" not in accepted and "span" not in accepted
        assert accepted["job_id"] == by_event["job_finished"]["job_id"]

    def test_server_close_detaches_the_log_ring(self):
        logger = logging.getLogger("repro")
        before = (list(logger.handlers), logger.level)
        service = VerificationService(ServiceConfig())
        server = make_server(port=0, app=ServiceApp(service=service))
        assert server.log_buffer in logger.handlers
        server.server_close()
        service.shutdown(drain=False)
        assert (list(logger.handlers), logger.level) == before

    def test_log_file_lines_equal_the_ring(self, tmp_path):
        path = tmp_path / "service.log"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", "1", "--log-file", str(path)],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        try:
            banner = process.stdout.readline()
            url = banner.split()[4]
            status, body = post_json(f"{url}/v1/verify",
                                     {"dataset": "tabfact", "document": 0})
            assert status == 202
            get_raw(f"{url}{body['events_url']}?wait=1&timeout=60")
            _, _, ring = get_raw(f"{url}/v1/debug/logs?n=1000")
            events = [json.loads(line)["event"]
                      for line in ring.splitlines()]
            assert events[0] == "service_started"
            assert "job_finished" in events
            assert path.read_text(encoding="utf-8") == ring
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60)
        assert process.returncode == 0


@pytest.fixture(scope="module")
def server():
    service = VerificationService(ServiceConfig(workers=2)).start()
    app = ServiceApp(
        service=service,
        datasets={"tiny": lambda: build_aggchecker(document_count=2,
                                                   total_claims=6)},
    )
    http_server = make_server(port=0, app=app)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    host, port = http_server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.shutdown(drain=False)
        thread.join(timeout=5.0)


def get_raw(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode())


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestHttpObservability:
    def test_metrics_route_serves_prometheus_text(self, server):
        status, content_type, body = get_raw(f"{server}/v1/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE cedar_queue_depth gauge" in body
        for line in body.splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_job_trace_route_serves_chrome_trace(self, server):
        status, body = post_json(f"{server}/v1/verify",
                                 {"dataset": "tiny", "document": 0})
        assert status == 202
        job_id = body["job_id"]
        # Stream to completion so spans have been filed.
        with urllib.request.urlopen(
            f"{server}/v1/jobs/{job_id}/events?wait=1&timeout=30", timeout=35
        ) as response:
            for _ in response:
                pass
        status, _, raw = get_raw(f"{server}/v1/jobs/{job_id}/trace")
        assert status == 200
        payload = json.loads(raw)
        complete = [e for e in payload["traceEvents"]
                    if e.get("ph") == "X"]
        assert any(e["cat"] == "queue_wait" for e in complete)
        assert any(e["cat"] == "document" for e in complete)

    def test_trace_for_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_raw(f"{server}/v1/jobs/nope/trace")
        assert excinfo.value.code == 404
