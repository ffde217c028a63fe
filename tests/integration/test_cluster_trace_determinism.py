"""Distributed tracing, end to end: stitched traces are deterministic.

Three invariants, each driven through real ``python -m
repro.cluster.worker`` processes behind the asyncio router:

1. **Structure** — ``GET /v1/jobs/<id>/trace`` returns one tree: the
   router's admission/route/rpc spans with the worker's queue-wait and
   document waterfall grafted underneath.
2. **Reruns agree** — two fresh clusters fed the identical submission
   sequence produce byte-identical stitched trees once wall times (and
   the wall-time-derived critical-path annotations) are stripped.
3. **Cluster ≡ single process** — the worker subtree inside a stitched
   trace is the same span tree a single-process service files for the
   same document, modulo wall times and the router-added worker id.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.obs.tracer import strip_times

JOB_SEQUENCE = [("aggchecker", 0, "det-a"), ("aggchecker", 1, "det-b")]


class TraceHarness:
    """A 2-worker tiny-profile router on a background event loop."""

    def __init__(self, **config):
        config.setdefault("workers", 2)
        config.setdefault("profile", "tiny")
        config.setdefault("spawn_timeout", 120.0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True,
        )
        self.thread.start()
        self.router = self.run(
            ClusterRouter(ClusterConfig(**config)).start()
        )

    def run(self, coroutine, timeout=180):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop,
        ).result(timeout)

    def run_job(self, dataset, document, client_id):
        """Submit, drain the event stream to terminal, return job_id."""
        status, body = self.run(self.router.submit({
            "dataset": dataset, "document": document,
            "client_id": client_id,
        }))
        assert status == 202, body
        job_id = body["job_id"]

        async def _drain():
            stream = await self.router.job_events(job_id, True, 120)
            return [line async for burst in stream for line in burst]

        lines = self.run(_drain())
        assert json.loads(lines[-1])["event"] == "job_done", lines
        return job_id

    def stitched_tree(self, job_id):
        """The job's stitched trace with the worker subtree present."""
        for _ in range(100):
            status, body = self.run(
                self.router.job_trace(job_id, fmt="tree")
            )
            assert status == 200, body
            root = body["spans"][0]
            if root.get("attributes", {}).get("worker_trace") \
                    != "unavailable":
                return body
            time.sleep(0.05)
        raise AssertionError(f"worker subtree never arrived: {body}")

    def close(self):
        try:
            self.run(self.router.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            self.loop.close()


def _normalized(tree_body):
    """A stitched trace rendered rerun-comparable: no wall times (and
    with them the critical-path annotations), no structural ids."""

    def scrub(node):
        node.pop("span_id", None)
        for child in node.get("children", ()):
            scrub(child)
        return node

    spans = strip_times(tree_body["spans"])
    return json.dumps([scrub(span) for span in spans], sort_keys=True)


@pytest.fixture(scope="module")
def cluster():
    harness = TraceHarness()
    yield harness
    harness.close()


# -- structure ----------------------------------------------------------------


def test_stitched_trace_has_router_and_worker_spans(cluster):
    job_id = cluster.run_job("aggchecker", 0, "structure")
    body = cluster.stitched_tree(job_id)
    assert body["job_id"] == job_id
    assert body["trace_id"].startswith("trace-")
    root = body["spans"][0]
    assert root["name"] == f"job:{job_id}"
    assert root["kind"] == "job"
    assert root["attributes"]["trace_id"] == body["trace_id"]
    assert root["attributes"]["outcome"] == "job_done"
    # Router phases come first, in causal order.
    names = [child["name"] for child in root["children"]]
    assert names[:3] == ["admission", "route", "rpc:submit"]
    route = root["children"][1]
    assert route["attributes"]["worker"] == root["attributes"]["worker"]
    # The worker's forest is grafted after them: the queue-wait bar and
    # the per-document verification waterfall.
    grafted = root["children"][3:]
    assert grafted, "no worker spans were stitched in"
    kinds = {span["kind"] for span in grafted}
    assert "queue_wait" in kinds
    assert "document" in kinds
    deep_kinds = {
        node["kind"]
        for span in grafted
        for node in _walk(span)
    }
    assert {"stage", "method"} <= deep_kinds
    # Grafted spans landed on the router's timeline: every child starts
    # at or after the root (clock rebasing worked).
    assert all(child["start"] >= root["start"]
               for child in root["children"])


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def test_trace_unknown_job_and_chrome_format(cluster):
    status, body = cluster.run(cluster.router.job_trace("nope"))
    assert status == 404
    job_id = cluster.run_job("aggchecker", 0, "chrome")
    cluster.stitched_tree(job_id)            # wait for worker spans
    status, body = cluster.run(cluster.router.job_trace(job_id))
    assert status == 200
    events = body["traceEvents"]
    assert any(event.get("name") == f"job:{job_id}" for event in events)


def test_repeated_fetches_do_not_accumulate_spans(cluster):
    job_id = cluster.run_job("aggchecker", 1, "idempotent")
    first = cluster.stitched_tree(job_id)
    second = cluster.run(cluster.router.job_trace(job_id, fmt="tree"))[1]
    assert _normalized(first) == _normalized(second)
    assert len(first["spans"][0]["children"]) \
        == len(second["spans"][0]["children"])


# -- reruns agree -------------------------------------------------------------


def test_stitched_trace_identical_across_fresh_clusters():
    def collect():
        harness = TraceHarness()
        try:
            return [
                _normalized(harness.stitched_tree(
                    harness.run_job(dataset, document, client)
                ))
                for dataset, document, client in JOB_SEQUENCE
            ]
        finally:
            harness.close()

    first, second = collect(), collect()
    assert first == second


# -- cluster ≡ single process -------------------------------------------------


def test_worker_subtree_matches_single_process_spans():
    from repro.cluster.worker import dataset_builders
    from repro.service import ServiceConfig, VerificationService
    from repro.service.http import ServiceApp

    # A fresh cluster, so the shard's caches are as cold as the fresh
    # single-process service's — execution counts must line up too.
    harness = TraceHarness()
    try:
        job_id = harness.run_job("aggchecker", 0, "vs-single")
        stitched = harness.stitched_tree(job_id)["spans"][0]
    finally:
        harness.close()
    grafted = stitched["children"][3:]
    for span in grafted:
        span["attributes"].pop("worker", None)   # router-added label

    single = VerificationService(ServiceConfig(workers=2)).start()
    try:
        app = ServiceApp(single, datasets=dataset_builders("tiny"),
                         seed=0)
        status, body = app.submit({
            "dataset": "aggchecker", "document": 0,
            "client_id": "vs-single",
        })
        assert status == 202, body
        handle = single.job(body["job_id"])
        list(handle.events(timeout=None))        # drain to terminal
        local = [span.to_dict(str(index), include_times=True)
                 for index, span in enumerate(handle.spans(), start=1)]
    finally:
        single.shutdown(drain=False)

    def scrub(spans):
        def _scrub(node):
            node.pop("span_id", None)
            # Job ids differ only by the shard's sequence position —
            # normalise both sides to compare the *shape* and names.
            for key in ("job_id",):
                node.get("attributes", {}).pop(key, None)
            node["name"] = node["name"].split(":job-")[0]
            for child in node.get("children", ()):
                _scrub(child)
            return node

        return json.dumps(
            [_scrub(span) for span in strip_times(spans)],
            sort_keys=True,
        )

    assert scrub(grafted) == scrub(local)
