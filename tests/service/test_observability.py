"""Service-level observability: per-job traces, /metrics, retry totals.

The inline-drain tests use a never-started service (submissions queue
up; ``shutdown(drain=True)`` runs them on the calling thread), the same
deterministic harness as ``test_service.py``. The HTTP tests boot a
real server on a free port and scrape the new endpoints over sockets.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cache import CacheConfig
from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import CostLedger
from repro.obs.export import to_prometheus
from repro.service import ServiceConfig, VerificationService, clone_document
from repro.service.http import ServiceApp, make_server


def make_bundle():
    return build_aggchecker(document_count=3, total_claims=12)


def make_service(bundle, seed=0, **config_kwargs):
    config_kwargs.setdefault("use_samples", False)
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

    def test_registry_snapshot_covers_the_stack(self):
        service, _ = drain_one_job()
        snapshot = service.metrics.snapshot()
        assert snapshot["cedar_llm_calls_total"] > 0
        assert snapshot["cedar_jobs_total"]["state=completed"] == 1
        assert snapshot["cedar_batches_total"] == 1
        assert "cedar_queue_depth" in snapshot
        assert snapshot["cedar_job_latency_seconds"]["count"] == 1

    def test_prometheus_rendering_of_live_registry(self):
        service, _ = drain_one_job()
        text = to_prometheus(service.metrics)
        assert text.endswith("\n")
        assert "# TYPE cedar_jobs_total counter" in text
        assert 'cedar_jobs_total{state="completed"} 1' in text
        assert "cedar_job_latency_seconds_bucket" in text
        assert 'cedar_cache_hits_total{cache="llm"}' in text
        # No persistent tier configured: no tier-labelled samples.
        assert 'tier="l2"' not in text

    def test_tier_labelled_cache_metrics_when_persistent(self, tmp_path):
        service, _ = drain_one_job(
            cache_config=CacheConfig(path=tmp_path / "l2.sqlite"),
        )
        text = to_prometheus(service.metrics)
        lines = text.splitlines()
        for cache_name in ("llm", "sql_result"):
            for tier in ("l1", "l2"):
                assert any(
                    line.startswith("cedar_cache_hits_total")
                    and f'cache="{cache_name}"' in line
                    and f'tier="{tier}"' in line
                    for line in lines
                ), f"missing {cache_name}/{tier} tier sample"


@pytest.fixture(scope="module")
def server():
    service = VerificationService(
        ServiceConfig(workers=2, use_samples=False)
    ).start()
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
