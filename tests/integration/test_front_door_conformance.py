"""One conformance table, run against both front doors.

``make_server`` (the single-process service) and ``ClusterRouter`` (one
worker process on the ``tiny`` profile) serve ``/v1`` through the same
HTTP code in ``repro.service.http``; every row must get the same answer
from each. Model latency is simulated at a tenth of its modelled cost,
so the tiny aggchecker document 0 takes about 1.3 s: long enough to
follow a job that is still running.
"""

import asyncio
import http.client
import json
import re
import socket
import threading
import time

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.worker import dataset_builders, latency_wrapper
from repro.service import ServiceConfig, VerificationService
from repro.service.http import MAX_BODY_BYTES, ServiceApp, make_server

LATENCY_SCALE = 0.1


class ServiceDoor:
    """``make_server`` on a thread, the way ``python -m repro.service``
    runs it."""

    def __init__(self):
        self.service = VerificationService(ServiceConfig(workers=1)).start()
        app = ServiceApp(self.service, datasets=dataset_builders("tiny"),
                         seed=0,
                         client_wrapper=latency_wrapper(LATENCY_SCALE))
        self.server = make_server(port=0, app=app)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.address = self.server.server_address[:2]

    def drain(self):
        self.service.begin_drain()
        self.server.shutdown()          # returns once serve_forever has
        assert not self.thread.is_alive()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown(drain=False)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class RouterDoor:
    """A one-worker ``ClusterRouter`` on a background event loop."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.router = self.run(self._start(ClusterConfig(
            workers=1, profile="tiny", spawn_timeout=120.0,
            latency_scale=LATENCY_SCALE,
        )))
        self.address = self.run(self.router.serve_http(port=0))

    @staticmethod
    async def _start(config):
        return await ClusterRouter(config).start()

    def run(self, coroutine, timeout=180):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop,
        ).result(timeout)

    def drain(self):
        self.run(self.router.drain(timeout=120))

    def close(self):
        try:
            self.run(self.router.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            self.loop.close()


DOORS = {"service": ServiceDoor, "router": RouterDoor}


@pytest.fixture(scope="module", params=sorted(DOORS))
def door(request):
    door = DOORS[request.param]()
    yield door
    door.close()


def exchange(door, raw: bytes) -> tuple[bytes, dict]:
    """Send ``raw`` as is, read until the server hangs up; the reply's
    head and its JSON body."""
    with socket.create_connection(door.address, timeout=30) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, json.loads(body)


def get(path: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n").encode()


def post(body: bytes) -> bytes:
    return ("POST /v1/verify HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def verify(payload: dict) -> bytes:
    return post(json.dumps(payload).encode())


def hostile(declared) -> bytes:
    """A POST whose body the server must not read. The client does not
    ask to close, so the server has to hang up by itself."""
    return ("POST /v1/verify HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {declared}\r\n\r\n").encode()


ROWS = [
    pytest.param(hostile("abc"), 400, id="content-length-abc"),
    pytest.param(hostile("-1"), 400, id="content-length-negative"),
    pytest.param(hostile(MAX_BODY_BYTES + 1), 413, id="content-length-over"),
    pytest.param(hostile("9" * 5000), 413, id="content-length-5000-digits"),
    pytest.param(post(b"not json"), 400, id="body-not-json"),
    pytest.param(post(b"[0]"), 400, id="body-not-an-object"),
    pytest.param(verify({"dataset": "aggchecker", "document": True}), 400,
                 id="document-true"),
    pytest.param(verify({"dataset": "aggchecker", "document": 1.0}), 400,
                 id="document-float"),
    pytest.param(verify({"dataset": "aggchecker", "priority": True}), 400,
                 id="priority-true"),
    pytest.param(verify({"dataset": "aggchecker", "priority": "7"}), 400,
                 id="priority-string"),
    pytest.param(verify({"dataset": "aggchecker", "priority": 7.9}), 400,
                 id="priority-float"),
    pytest.param(verify({"dataset": ["aggchecker"]}), 400,
                 id="dataset-not-a-string"),
    pytest.param(get("/v1/jobs/{job}/events?wait=1&timeout=soon"), 400,
                 id="timeout-soon"),
    pytest.param(get("/v1/jobs/{job}/events?wait=1&timeout=nan"), 400,
                 id="timeout-nan"),
    pytest.param(get("/v1/jobs/{job}/events?wait=1&timeout=-1"), 400,
                 id="timeout-negative"),
    pytest.param(get("/v1/debug/logs?n=-1"), 400, id="logs-n-negative"),
    pytest.param(get("/v1/telemetry"), 404, id="telemetry-gone"),
    pytest.param(get("/v1/jobs/no-such-job"), 404, id="unknown-job"),
    pytest.param(get("/v1/jobs/no-such-job/events"), 404,
                 id="unknown-job-events"),
    pytest.param(get("/v1/jobs/no-such-job/trace"), 404,
                 id="unknown-job-trace"),
    pytest.param(get("/healthz"), 404, id="unversioned"),
    pytest.param(get("/v2/healthz"), 404, id="v2"),
]


@pytest.fixture(scope="module")
def job(door):
    """A job on this door, for the rows that need one."""
    head, reply = exchange(door, verify({"dataset": "tabfact",
                                         "document": 1}))
    assert head.startswith(b"HTTP/1.1 202 "), reply
    return reply["job_id"]


@pytest.mark.parametrize("raw, status", ROWS)
def test_both_doors_answer_alike(door, job, raw, status):
    head, reply = exchange(door, raw.replace(b"{job}", job.encode()))
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), (head, reply)
    assert "error" in reply
    if b"Connection: close" not in raw:
        # exchange() read to EOF, so the server hung up; it said so.
        assert b"\r\nconnection: close" in head.lower(), head
    if b" /v1/" not in raw:
        assert reply["supported"] == ["v1"]


def test_a_wait_deadline_ends_a_running_jobs_stream(door):
    head, reply = exchange(door, verify({"dataset": "aggchecker",
                                         "document": 0}))
    assert head.startswith(b"HTTP/1.1 202 "), reply
    connection = http.client.HTTPConnection(*door.address, timeout=30)
    try:
        started = time.monotonic()
        connection.request("GET",
                           f"{reply['events_url']}?wait=1&timeout=0.2")
        response = connection.getresponse()
        lines = response.read().decode().splitlines()
        elapsed = time.monotonic() - started
    finally:
        connection.close()
    kinds = [json.loads(line)["event"] for line in lines]
    assert response.status == 200
    assert 0.2 <= elapsed < 1.0, elapsed
    assert kinds[0] == "job_queued" and kinds[-1] != "job_done", kinds


@pytest.mark.parametrize("kind", sorted(DOORS))
def test_a_follower_connected_before_the_drain_reads_its_end(kind):
    door = DOORS[kind]()
    events = []
    following = threading.Event()

    def follow(events_url):
        connection = http.client.HTTPConnection(*door.address, timeout=60)
        try:
            connection.request("GET", f"{events_url}?wait=1&timeout=60")
            for line in connection.getresponse():
                events.append(json.loads(line)["event"])
                following.set()
        finally:
            connection.close()

    try:
        head, reply = exchange(door, verify({"dataset": "aggchecker",
                                             "document": 0}))
        assert head.startswith(b"HTTP/1.1 202 "), reply
        follower = threading.Thread(target=follow,
                                    args=(reply["events_url"],))
        follower.start()
        assert following.wait(30)
        door.drain()
        follower.join(timeout=60)
        assert not follower.is_alive()
    finally:
        door.close()
    assert events[0] == "job_queued"
    assert events[-1] == "job_done", events


def fetch(door, path: str) -> bytes:
    connection = http.client.HTTPConnection(*door.address, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200, path
        return response.read()
    finally:
        connection.close()


def stats_leaves(node, path=()):
    """(sample name, value) for every numeric leaf of a ``/v1/stats``
    body, named by the documented rule (docs/observability.md)."""
    if isinstance(node, dict):
        if set(node) == {"bounds", "counts"}:
            return                      # the histogram, checked apart
        for key, value in node.items():
            yield from stats_leaves(value, path + (str(key),))
    elif isinstance(node, (bool, int, float)):
        labels = ""
        for prefix in (("workers",), ("cluster", "shards")):
            if path[:len(prefix)] == prefix:
                labels = f'{{worker="{path[len(prefix)]}"}}'
                path = prefix + path[len(prefix) + 1:]
        name = re.sub(r"[^a-zA-Z0-9_]", "_", "_".join(("cedar",) + path))
        yield name + labels, float(node)


def test_metrics_are_the_stats_body_on_an_idle_door(door):
    for _ in range(300):
        before = json.loads(fetch(door, "/v1/stats"))
        text = fetch(door, "/v1/metrics").decode()
        after = json.loads(fetch(door, "/v1/stats"))
        jobs = after["jobs"]
        if before == after and jobs["submitted"] == (
                jobs["completed"] + jobs["failed"] + jobs["cancelled"]):
            break
        time.sleep(0.1)
    else:
        pytest.fail("the door never went idle")
    histograms = re.findall(r"^# TYPE (\S+) histogram$", text, re.M)
    assert histograms                   # latency.buckets, at least
    samples = [line.rsplit(" ", 1) for line in text.splitlines()
               if not line.startswith("#")]
    assert len(samples) == len({series for series, _ in samples})
    plain = {series: float(value) for series, value in samples
             if not series.startswith(tuple(histograms))}
    leaves = list(stats_leaves(after))
    for series, value in leaves:
        assert plain[series] == value, series
    assert set(plain) == {series for series, _ in leaves}
    # Leaves sharing a name share its one sample; only these may.
    shared = {series for series, _ in leaves
              if [name for name, _ in leaves].count(series) > 1}
    assert {series.split("{")[0] for series in shared} <= {
        "cedar_sql_analyzer_memo_hits",
        "cedar_workers_sql_analyzer_memo_hits",
    }
