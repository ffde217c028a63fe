"""Smoke test for the single-process HTTP front end.

Boots ``make_server`` on a free port with a tiny injected dataset and
exercises every route once over actual sockets: submit, stream,
summary, stats, health, and the error paths. Kept small so it can run
in tier-1; what both front doors must answer alike is
``tests/integration/test_front_door_conformance.py``, load behaviour
the service tests and the front-door benchmark (``bench/run.py``).
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets import build_aggchecker
from repro.service import (
    JobDone,
    JobQueued,
    ServiceConfig,
    VerificationService,
)
from repro.service.http import (
    MAX_BODY_BYTES,
    HttpServer,
    ServiceApp,
    _send_json,
    _send_ndjson,
    _send_text,
    make_server,
)


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


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_json_with_headers(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read()), response.headers


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestHttpSmoke:
    def test_healthz(self, server):
        status, body, _ = get_json_with_headers(f"{server}/v1/healthz")
        assert status == 200
        assert body == {"status": "ok", "draining": False}

    def test_unknown_version_structured_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{server}/v2/healthz")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["supported"] == ["v1"]
        assert "v2" in body["error"]

    def test_submit_stream_and_summary(self, server):
        status, body = post_json(
            f"{server}/v1/verify", {"dataset": "tiny", "document": 0}
        )
        assert status == 202
        assert body["state"] == "queued"
        assert body["claims"] > 0
        job_id = body["job_id"]
        assert body["events_url"] == f"/v1/jobs/{job_id}/events"

        # ?wait=1 streams ndjson until the terminal event.
        with urllib.request.urlopen(
            f"{server}{body['events_url']}?wait=1&timeout=30", timeout=40
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response if line.strip()]
        assert events[0]["event"] == "job_queued"
        assert events[-1]["event"] == "job_done"
        assert events[-1]["claims"] == body["claims"]
        verdicts = [e for e in events if e["event"] == "claim_verdict"]
        assert len(verdicts) == body["claims"]

        status, summary = get_json(f"{server}/v1/jobs/{job_id}")
        assert status == 200
        assert summary["state"] == "completed"
        assert summary["events"] == len(events)

        # Without ?wait the stream is an instant replay.
        status, _ = get_json(f"{server}/v1/jobs/{job_id}")
        with urllib.request.urlopen(
            f"{server}{body['events_url']}", timeout=10
        ) as response:
            replay = [json.loads(line) for line in response if line.strip()]
        assert replay == events

    def test_accepted_reply_reports_the_admission_state(self, server):
        """A dispatcher may pop a job before its 202 is written; the
        reply still names the state the job was admitted in."""
        job_ids = []
        for index in range(50):
            status, body = post_json(f"{server}/v1/verify", {
                "dataset": "tiny", "document": index % 2,
                "client_id": f"burst-{index}",
            })
            assert status == 202
            assert body["state"] == "queued", index
            job_ids.append(body["job_id"])
        for job_id in job_ids:
            with urllib.request.urlopen(
                f"{server}/v1/jobs/{job_id}/events?wait=1&timeout=30",
                timeout=40,
            ) as response:
                events = [json.loads(line) for line in response
                          if line.strip()]
            assert events[-1]["event"] == "job_done"

    def test_stats_route(self, server):
        status, body = get_json(f"{server}/v1/stats")
        assert status == 200
        assert body["queue_depth"] == 0
        assert "hit_rate" in body["cache"]
        assert "p95_seconds" in body["latency"]

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{server}/v1/nope")
        assert excinfo.value.code == 404

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{server}/v1/jobs/job-999999/events")
        assert excinfo.value.code == 404

    def test_bad_body_400(self, server):
        request = urllib.request.Request(
            f"{server}/v1/verify", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_dataset_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{server}/v1/verify", {"dataset": "missing"})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["datasets"] == ["tiny"]

    def test_document_index_validation(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{server}/v1/verify",
                      {"dataset": "tiny", "document": 99})
        assert excinfo.value.code == 400

    def test_bad_priority_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{server}/v1/verify",
                      {"dataset": "tiny", "priority": "urgent"})
        assert excinfo.value.code == 400
        assert "priority" in json.loads(excinfo.value.read())["error"]

    def test_readyz_reports_accepting(self, server):
        status, body, _ = get_json_with_headers(f"{server}/v1/readyz")
        assert status == 200
        assert body == {"ready": True, "draining": False}

    def test_bad_events_timeout_400(self, server):
        status, body = post_json(f"{server}/v1/verify", {"dataset": "tiny"})
        assert status == 202
        for bad in ("soon", "nan", "-1"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(f"{server}{body['events_url']}?wait=1&timeout={bad}")
            assert excinfo.value.code == 400
            assert "timeout" in json.loads(excinfo.value.read())["error"]


def raw_exchange(base_url, request: bytes) -> bytes:
    """Send ``request`` verbatim and read until the server hangs up."""
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHostileContentLength:
    """The declared length is judged before a byte of body is read, and
    the connection closes (an unread body cannot be skipped)."""

    @pytest.mark.parametrize("declared, status", [
        ("abc", 400),
        ("-1", 400),
        ("1e3", 400),
        ("+5", 400),
        (str(MAX_BODY_BYTES + 1), 413),
        ("99999999999", 413),
        pytest.param("9" * 5000, 413, id="5000-digits"),
    ])
    def test_rejected_before_the_body_is_read(self, server, declared,
                                              status):
        reply = raw_exchange(server, (
            "POST /v1/verify HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)

    def test_the_limit_itself_is_not_hostile(self, server):
        # Declared at the cap and then sent in full: read, parsed,
        # and refused only for what it says.
        body = b'{"dataset": "missing", "pad": "' \
            + b"x" * (MAX_BODY_BYTES - 33) + b'"}'
        assert len(body) == MAX_BODY_BYTES
        reply = raw_exchange(server, (
            "POST /v1/verify HTTP/1.1\r\nHost: test\r\n"
            "Connection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"unknown dataset" in reply


class RecordingWriter:
    """Stands in for a ``StreamWriter``: remembers each write and drain."""

    def __init__(self):
        self.calls = []

    def write(self, data):
        self.calls.append(bytes(data))

    async def drain(self):
        self.calls.append("drain")


class TestOneSegmentReplies:
    """A reply's head and body leave in one write, and an ndjson stream
    one chunk per burst, on a socket with Nagle off: a reply split in
    two small writes waits out the client's delayed ACK."""

    def test_send_json_is_one_write_and_one_flush(self):
        writer = RecordingWriter()
        assert asyncio.run(_send_json(writer, 200, {"status": "ok"})) == 200
        (data, drain) = writer.calls
        assert drain == "drain"
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"status": "ok"}

    def test_send_text_is_one_write_and_one_flush(self):
        writer = RecordingWriter()
        asyncio.run(_send_text(writer, 200, "cedar_up 1\n", "text/plain"))
        (data, drain) = writer.calls
        assert drain == "drain"
        assert data.endswith(b"\r\n\r\ncedar_up 1\n")

    def test_each_ndjson_burst_is_one_chunk(self):
        bursts = [[JobQueued(job_id="job-000001").to_json(),
                   JobQueued(job_id="job-000001").to_json()],
                  [JobDone(job_id="job-000001", claims=1).to_json()]]

        async def stream():
            for burst in bursts:
                yield burst

        writer = RecordingWriter()
        asyncio.run(_send_ndjson(writer, stream()))
        calls = writer.calls
        assert calls[1::2] == ["drain"] * 3       # 2 bursts, terminator
        first, second, end = calls[0::2]
        head, _, first = first.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")   # with burst 1
        assert b"Transfer-Encoding: chunked" in head
        for chunk, lines in zip((first, second), bursts):
            data = ("\n".join(lines) + "\n").encode()
            assert chunk == f"{len(data):x}\r\n".encode() + data + b"\r\n"
        assert end == b"0\r\n\r\n"

    def test_accepted_sockets_have_nagle_off(self, server, monkeypatch):
        seen = []
        original = HttpServer._route

        async def route(self, method, target, body, writer):
            seen.append(writer.get_extra_info("socket").getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            return await original(self, method, target, body, writer)

        monkeypatch.setattr(HttpServer, "_route", route)
        assert get_json(f"{server}/v1/healthz")[0] == 200
        assert seen and all(seen)


class TestAdmissionRejections:
    """429/503 + Retry-After on retryable rejections, and readiness.

    Uses a deliberately *unstarted* service: submitted jobs stay queued,
    so limit-driven rejections are deterministic rather than a race
    against the dispatcher.
    """

    @pytest.fixture()
    def tight(self):
        service = VerificationService(ServiceConfig(
            max_queue_depth=2, per_client_limit=1,
        ))
        app = ServiceApp(
            service=service,
            datasets={"tiny": lambda: build_aggchecker(document_count=2,
                                                       total_claims=6)},
        )
        http_server = make_server(port=0, app=app)
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = http_server.server_address[:2]
        try:
            yield f"http://{host}:{port}", service
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.shutdown(drain=False)
            thread.join(timeout=5.0)

    @staticmethod
    def _rejection(url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        error = excinfo.value
        return error.code, json.loads(error.read()), error.headers

    def test_client_limit_is_429_with_retry_after(self, tight):
        url, _service = tight
        status, body = post_json(
            f"{url}/v1/verify",
            {"dataset": "tiny", "document": 0, "client_id": "hog"},
        )
        assert status == 202
        code, body, headers = self._rejection(
            f"{url}/v1/verify",
            {"dataset": "tiny", "document": 1, "client_id": "hog"},
        )
        assert code == 429
        assert body["rejected"]["code"] == "client_limit"
        assert body["retry_after_seconds"] >= 1
        assert int(headers["Retry-After"]) == body["retry_after_seconds"]

    def test_queue_full_is_429_with_retry_after(self, tight):
        url, _service = tight
        for client in ("a", "b"):
            status, _ = post_json(
                f"{url}/v1/verify",
                {"dataset": "tiny", "document": 0, "client_id": client},
            )
            assert status == 202
        code, body, headers = self._rejection(
            f"{url}/v1/verify",
            {"dataset": "tiny", "document": 0, "client_id": "c"},
        )
        assert code == 429
        assert body["rejected"]["code"] == "queue_full"
        assert "Retry-After" in headers

    def test_draining_is_503_and_flips_readyz_not_healthz(self, tight):
        url, service = tight
        service.begin_drain()
        code, body, headers = self._rejection(
            f"{url}/v1/verify", {"dataset": "tiny", "document": 0},
        )
        assert code == 503
        assert body["rejected"]["code"] == "draining"
        assert "Retry-After" in headers
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{url}/v1/readyz")
        assert excinfo.value.code == 503
        ready_body = json.loads(excinfo.value.read())
        assert ready_body["ready"] is False
        assert ready_body["draining"] is True
        # Liveness is a different question: the process is healthy.
        status, body = get_json(f"{url}/v1/healthz")
        assert status == 200
        assert body["draining"] is True
