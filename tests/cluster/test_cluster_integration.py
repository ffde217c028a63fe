"""Router + real worker processes: routing, failure, drain, determinism.

These tests spawn genuine ``python -m repro.cluster.worker`` processes
(the "tiny" dataset profile keeps them cheap) behind a shared router
running on a background event loop, and drive it over its public
surfaces — ``submit``, the HTTP front end, kill -9, drain.
"""

import asyncio
import json
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.worker import build_parser as build_worker_parser
from repro.service.http import MAX_BODY_BYTES

_TAG = re.compile(r"^r\d+/")


def _strip_tag(claim_id):
    """Drop the per-process request tag (``r00001/``) from a claim id."""
    return _TAG.sub("", claim_id)


class ClusterHarness:
    """A router on a background event loop, driven synchronously."""

    def __init__(self, **config):
        config.setdefault("workers", 2)
        config.setdefault("profile", "tiny")
        config.setdefault("spawn_timeout", 120.0)
        self.config = ClusterConfig(**config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True,
        )
        self.thread.start()
        self.router = self.run(self._start())
        self.host, self.port = self.run(self.router.serve_http(port=0))

    async def _start(self):
        return await ClusterRouter(self.config).start()

    def run(self, coroutine, timeout=180):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop,
        ).result(timeout)

    def submit(self, **payload):
        return self.run(self.router.submit(payload))

    def http(self, path, data=None, timeout=120):
        request = urllib.request.Request(
            f"http://{self.host}:{self.port}{path}",
            data=json.dumps(data).encode() if data is not None else None,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read().decode(), \
                    dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode(), dict(error.headers)

    def events(self, job_id, wait=True, timeout=120):
        status, body, _ = self.http(
            f"/v1/jobs/{job_id}/events?wait={'1' if wait else '0'}"
            f"&timeout={timeout}"
        )
        assert status == 200, body
        return [json.loads(line) for line in body.strip().splitlines()]

    def wait_for(self, predicate, timeout=60, message="condition"):
        async def _poll():
            for _ in range(int(timeout / 0.05)):
                if predicate():
                    return True
                await asyncio.sleep(0.05)
            return predicate()

        assert self.run(_poll()), f"timed out waiting for {message}"

    def close(self):
        try:
            self.run(self.router.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            self.loop.close()


@pytest.fixture(scope="module")
def cluster():
    harness = ClusterHarness(workers=2)
    yield harness
    harness.close()


# -- routing -----------------------------------------------------------------


def test_submit_runs_to_job_done_over_http(cluster):
    status, body, _ = cluster.http(
        "/v1/verify",
        {"dataset": "aggchecker", "document": 0, "client_id": "t1"},
    )
    assert status == 202, body
    accepted = json.loads(body)
    assert accepted["job_id"].startswith(f"w{accepted['worker']}g")
    events = cluster.events(accepted["job_id"])
    kinds = [event["event"] for event in events]
    assert kinds[0] == "job_queued"
    assert kinds[-1] == "job_done"
    assert all(event["job_id"] == accepted["job_id"] for event in events)


def test_same_fingerprint_routes_to_same_live_shard(cluster):
    workers = set()
    for attempt in range(3):
        status, body = cluster.submit(
            dataset="aggchecker", document=1, client_id=f"route-{attempt}",
        )
        assert status == 202, body
        workers.add(body["worker"])
        cluster.events(body["job_id"])  # let it finish
    assert len(workers) == 1
    # A different document may land elsewhere, but is equally sticky.
    status, body = cluster.submit(
        dataset="tabfact", document=0, client_id="route-x",
    )
    assert status == 202
    first = body["worker"]
    cluster.events(body["job_id"])
    status, body = cluster.submit(
        dataset="tabfact", document=0, client_id="route-y",
    )
    assert status == 202
    assert body["worker"] == first
    cluster.events(body["job_id"])


def test_unknown_dataset_and_bad_index_rejected(cluster):
    status, body = cluster.submit(dataset="nope", document=0)
    assert status == 400 and "unknown dataset" in body["error"]
    status, body = cluster.submit(dataset="aggchecker", document=99)
    assert status == 400 and "out of range" in body["error"]


@pytest.mark.parametrize("declared, status", [
    ("abc", 400),
    ("-1", 400),
    (str(MAX_BODY_BYTES + 1), 413),
    ("99999999999", 413),
])
def test_hostile_content_length_rejected_before_the_body(cluster, declared,
                                                         status):
    with socket.create_connection((cluster.host, cluster.port),
                                  timeout=10) as sock:
        sock.sendall((
            "POST /v1/verify HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode())
        chunks = []
        while chunk := sock.recv(65536):  # the router hangs up after
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert "error" in json.loads(body)
    # The front door is unharmed.
    assert cluster.http("/v1/healthz")[0] == 200


def test_shards_are_spawned_without_a_batch_window(cluster):
    argv = cluster.router._worker_argv(0, "/tmp/unused.sock")
    assert "--batch-window" not in argv
    build_worker_parser().parse_args(argv[3:])  # every flag still known
    assert not hasattr(cluster.config, "shard_batch_window")
    with pytest.raises(SystemExit):
        build_worker_parser().parse_args(argv[3:] + ["--batch-window", "0"])


# -- admission control -------------------------------------------------------


def test_client_limit_aggregates_across_shards(cluster):
    router = cluster.router
    client = "greedy-client"
    router._client_open[client] = router.config.per_client_limit
    try:
        status, body = cluster.submit(
            dataset="aggchecker", document=0, client_id=client,
        )
        assert status == 429
        assert body["rejected"]["code"] == "client_limit"
        assert body["retry_after_seconds"] >= 1
    finally:
        router._client_open.pop(client, None)


def test_queue_full_returns_429_with_retry_after(cluster):
    router = cluster.router
    # Pretend the target shard is saturated with open jobs.
    fingerprints = cluster.run(router.routing.fingerprints("aggchecker"))
    target = router.ring.route(fingerprints[0])
    saved = router._worker_open[target]
    router._worker_open[target] = {
        f"fake-{index}" for index in range(router.config.max_shard_inflight)
    }
    try:
        status, body, headers = cluster.http(
            "/v1/verify",
            {"dataset": "aggchecker", "document": 0, "client_id": "qf"},
        )
        assert status == 429
        assert json.loads(body)["rejected"]["code"] == "queue_full"
        assert int(headers["Retry-After"]) >= 1
    finally:
        router._worker_open[target] = saved


def test_draining_rejects_with_503_and_readyz_flips(cluster):
    router = cluster.router
    router.draining = True
    try:
        status, body, headers = cluster.http(
            "/v1/verify",
            {"dataset": "aggchecker", "document": 0, "client_id": "dr"},
        )
        assert status == 503
        assert json.loads(body)["rejected"]["code"] == "draining"
        assert "Retry-After" in headers
        status, body, _ = cluster.http("/v1/readyz")
        assert status == 503
        assert json.loads(body)["ready"] is False
        # Liveness is unaffected: the router process is still up.
        status, _, _ = cluster.http("/v1/healthz")
        assert status == 200
    finally:
        router.draining = False
    status, body, _ = cluster.http("/v1/readyz")
    assert status == 200
    assert json.loads(body)["ready"] is True


# -- aggregation -------------------------------------------------------------


def test_stats_and_metrics_aggregate_all_shards(cluster):
    status, body, _ = cluster.http("/v1/stats")
    assert status == 200
    stats = json.loads(body)
    assert set(stats["workers"]) == {"0", "1"}
    assert stats["cluster"]["workers"] == 2
    assert stats["jobs"]["submitted"] >= stats["jobs"]["completed"] >= 1
    status, text, _ = cluster.http("/metrics")
    assert status == 200
    assert 'cedar_cluster_jobs_routed_total{worker="0"}' in text
    assert 'cedar_cluster_jobs_routed_total{worker="1"}' in text
    assert "cedar_cluster_workers 2" in text
    # Shard registries arrive relabelled, one family for all shards.
    assert 'worker="0"' in text and 'worker="1"' in text


# -- failure: kill a worker ---------------------------------------------------


def test_killed_worker_yields_worker_lost_and_respawn(cluster):
    router = cluster.router
    # Park jobs on both shards (slow nothing: tiny jobs finish fast, so
    # open a follow stream first and race the kill against completion —
    # either outcome must terminate the stream, never wedge it).
    status, body = cluster.submit(
        dataset="aggchecker", document=0, client_id="kill-test",
    )
    assert status == 202, body
    victim = body["worker"]
    job_id = body["job_id"]
    restarts_before = router.supervisor.total_restarts

    stream_events = []
    stream_done = threading.Event()

    def _follow():
        stream_events.extend(cluster.events(job_id, wait=True, timeout=120))
        stream_done.set()

    follower = threading.Thread(target=_follow, daemon=True)
    follower.start()

    slot = router.supervisor.slots[victim]
    generation_before = slot.generation
    slot.process.kill()

    # The stream must end (terminal event), not hang: zero wedged streams.
    assert stream_done.wait(timeout=60), "event stream wedged after kill"
    assert stream_events, "stream ended with no events"
    terminal = stream_events[-1]["event"]
    assert terminal in {"job_done", "worker_lost"}
    record = router.records[job_id]
    assert record.terminal
    if terminal == "worker_lost":
        assert stream_events[-1]["worker"] == victim
        assert stream_events[-1]["error"]

    # The supervisor respawns the slot into the same shard identity.
    cluster.wait_for(
        lambda: slot.alive and slot.generation == generation_before + 1,
        timeout=120, message="worker respawn",
    )
    assert router.supervisor.total_restarts == restarts_before + 1
    cluster.wait_for(
        lambda: sorted(router.supervisor.live_workers()) == [0, 1],
        timeout=120, message="full fleet",
    )

    # And the shard serves the same fingerprints again.
    status, body = cluster.submit(
        dataset="aggchecker", document=0, client_id="kill-test-2",
    )
    assert status == 202, body
    assert body["worker"] == victim
    assert f"g{generation_before + 1}-" in body["job_id"]
    events = cluster.events(body["job_id"])
    assert events[-1]["event"] == "job_done"


# -- drain: zero dropped jobs -------------------------------------------------


def test_drain_completes_every_accepted_job():
    harness = ClusterHarness(workers=2, latency_scale=0.05)
    try:
        accepted = []
        for index in range(6):
            status, body = harness.submit(
                dataset="aggchecker",
                document=index % 2,
                client_id=f"drain-{index}",
            )
            assert status == 202, body
            accepted.append(body["job_id"])
        harness.run(harness.router.drain(timeout=120))
        for job_id in accepted:
            record = harness.router.records[job_id]
            assert record.terminal, f"{job_id} still open after drain"
            assert record.last == "job_done", (
                job_id, [json.loads(line)["event"] for line in record.events],
            )
        # Draining cluster refuses new work.
        status, body = harness.submit(
            dataset="aggchecker", document=0, client_id="late",
        )
        assert status == 503
        assert body["rejected"]["code"] == "draining"
    finally:
        harness.close()


# -- determinism vs the single-process service --------------------------------


def _verdict_view(events):
    """The order-independent, tag-independent essence of a job's run."""
    verdicts = sorted(
        (
            _strip_tag(event["claim_id"]),
            event["verdict"],
            event["verified_by"],
            event["fallback"],
        )
        for event in events
        if event["event"] == "claim_verdict"
    )
    done = [event for event in events if event["event"] == "job_done"]
    assert len(done) == 1
    return {
        "verdicts": verdicts,
        "claims": done[0]["claims"],
        "flagged": done[0]["flagged"],
    }


def test_cluster_verdicts_match_single_process(cluster):
    from repro.cluster.worker import dataset_builders
    from repro.service import ServiceConfig, VerificationService
    from repro.service.http import ServiceApp

    single = VerificationService(ServiceConfig(workers=2)).start()
    try:
        app = ServiceApp(
            single, datasets=dataset_builders("tiny"), seed=0,
        )
        for dataset, document in [("aggchecker", 0), ("aggchecker", 1),
                                  ("tabfact", 1)]:
            status, body = app.submit({
                "dataset": dataset, "document": document,
                "client_id": "single",
            })
            assert status == 202, body
            handle = single.job(body["job_id"])
            local = [event.to_dict()
                     for event in handle.events(timeout=None)]

            status, body = cluster.submit(
                dataset=dataset, document=document,
                client_id=f"det-{dataset}-{document}",
            )
            assert status == 202, body
            remote = cluster.events(body["job_id"])
            assert _verdict_view(remote) == _verdict_view(local), (
                dataset, document,
            )
    finally:
        single.shutdown(drain=False)


# -- the stream is the same bytes ---------------------------------------------

_PUBLIC_PREFIX = re.compile(r"^w\d+g\d+-")


def _normalised(event):
    """An event dict minus what legitimately differs between two runs:
    wall-clock fields, the request tag, the router's job-id prefix."""
    event = dict(event, ts=0.0, job_id=_PUBLIC_PREFIX.sub("", event["job_id"]))
    if "latency_seconds" in event:
        event["latency_seconds"] = 0.0
    for key in ("claim_id", "doc_id"):
        if key in event:
            event[key] = _strip_tag(event[key])
    return event


def test_router_stream_is_the_single_process_stream_line_for_line():
    from repro.cluster.worker import dataset_builders
    from repro.service import ServiceConfig, VerificationService
    from repro.service.http import ServiceApp

    # One claim thread on both sides: verdicts land in claim order, so
    # the two streams can be compared line by line, not as sets.
    harness = ClusterHarness(workers=1, shard_threads=1)
    single = VerificationService(ServiceConfig(workers=1)).start()
    try:
        status, body = harness.submit(
            dataset="aggchecker", document=0, client_id="bytes",
        )
        assert status == 202, body
        public = body["job_id"]
        status, text, _ = harness.http(
            f"/v1/jobs/{public}/events?wait=1&timeout=120")
        assert status == 200
        lines = text.splitlines()

        app = ServiceApp(single, datasets=dataset_builders("tiny"), seed=0)
        status, body = app.submit({
            "dataset": "aggchecker", "document": 0, "client_id": "bytes",
        })
        assert status == 202, body
        local = list(single.job(body["job_id"]).events(timeout=120))
    finally:
        single.shutdown(drain=False)
        harness.close()

    assert [json.loads(line)["event"] for line in lines] \
        == [event.kind for event in local]
    for line, event in zip(lines, local):
        decoded = json.loads(line)
        # The worker's one encoding, forwarded untouched: exactly
        # json.dumps({**event.to_dict(), "job_id": public}, sort_keys=True).
        assert line == json.dumps(decoded, sort_keys=True)
        assert decoded["job_id"] == public
        assert _normalised(decoded) == _normalised(event.to_dict())
    assert text.endswith("\n") and "\n\n" not in text
    # The router's buffer is those same lines.
    assert harness.router.records[public].events == lines


# -- ?wait=1&timeout= means one thing -----------------------------------------


def _follow_timed(base_url, job_id, timeout):
    import time

    started = time.monotonic()
    with urllib.request.urlopen(
        f"{base_url}/v1/jobs/{job_id}/events?wait=1&timeout={timeout}",
        timeout=60,
    ) as response:
        body = response.read().decode()
    return ([json.loads(line) for line in body.splitlines()],
            time.monotonic() - started)


def _assert_timeout_bounds_the_whole_stream(base_url, job_id):
    """Against a job that emits an event every < 0.5 s for > 1 s: the
    stream ends at the deadline, mid-job, however recent the last event
    was — and the job itself is untouched."""
    events, elapsed = _follow_timed(base_url, job_id, 0.6)
    kinds = [event["event"] for event in events]
    assert elapsed >= 0.6
    assert kinds[0] == "job_queued" and "job_started" in kinds
    assert kinds[-1] != "job_done", (elapsed, kinds)
    events, _ = _follow_timed(base_url, job_id, 60)
    assert [event["event"] for event in events].count("job_done") == 1
    assert events[-1]["event"] == "job_done"


def test_wait_timeout_is_a_whole_stream_deadline_on_the_router():
    # latency_scale 0.1: the tiny aggchecker document 0 takes ~1.3 s of
    # simulated model time, its longest silence ~0.4 s.
    harness = ClusterHarness(workers=1, shard_threads=1, latency_scale=0.1)
    try:
        status, body = harness.submit(
            dataset="aggchecker", document=0, client_id="slow",
        )
        assert status == 202, body
        _assert_timeout_bounds_the_whole_stream(
            f"http://{harness.host}:{harness.port}", body["job_id"])
    finally:
        harness.close()


def test_wait_timeout_is_a_whole_stream_deadline_on_the_service():
    from repro.cluster.worker import dataset_builders, latency_wrapper
    from repro.service import ServiceConfig, VerificationService
    from repro.service.http import ServiceApp, make_server

    service = VerificationService(ServiceConfig(workers=1)).start()
    app = ServiceApp(service, datasets=dataset_builders("tiny"), seed=0,
                     client_wrapper=latency_wrapper(0.1))
    server = make_server(port=0, app=app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = app.submit({"dataset": "aggchecker", "document": 0})
        assert status == 202, body
        host, port = server.server_address[:2]
        _assert_timeout_bounds_the_whole_stream(
            f"http://{host}:{port}", body["job_id"])
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False)
        thread.join(timeout=5.0)
