"""What the frozen benchmark harness uses of ``src/``, pinned in tier-1.

``bench/`` and ``tests/bench/`` may not change in a PR that claims a
gain, and they import ``src/`` directly — so a rename here breaks the
benchmark run long after ``make test`` went green. Every name, keyword
and call shape below is one the harness depends on (``bench/serve.py``,
``bench/cedarbench/probes.py``, ``bench/cedarbench/golden.py``); when
one has to change, the benchmark changes in its own PR first.
"""

import http.client
import importlib
import importlib.util
import io
import json
import os
import socket
import threading

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``from <module> import <name>`` as written in the harness.
HARNESS_IMPORTS = [
    ("repro", "verify"),
    ("repro", "VerifierConfig"),
    ("repro.agents", "install_agent_policy"),
    ("repro.cache", "TieredCache"),
    ("repro.cluster.protocol", "encode_frame"),
    ("repro.cluster.protocol", "read_frame"),
    ("repro.cluster.worker", "latency_wrapper"),
    ("repro.core", "ScheduleEntry"),
    ("repro.embeddings", "text_similarity"),
    ("repro.experiments", "build_cedar"),
    ("repro.llm", "SimulatedLLM"),
    ("repro.llm.base", "DelegatingLLMClient"),
    ("repro.llm.tokenizer", "count_tokens"),
    ("repro.service", "clone_document"),
    ("repro.service.__main__", "build_parser"),
    ("repro.service.http", "DEFAULT_DATASETS"),
    ("repro.service.http", "ServiceApp"),
    ("repro.service.http", "make_server"),
    ("repro.service.service", "ServiceConfig"),
    ("repro.service.service", "VerificationService"),
    ("repro.service.signals", "install_drain_handlers"),
    ("repro.sqlengine", "Engine"),
    ("repro.sqlengine", "analyze_sql"),
    ("repro.sqlengine", "parse_select"),
]

#: ``build_parser()`` dests that ``bench/serve.py`` reads.
PARSER_DESTS = ["queue_depth", "per_client", "max_batch", "batch_window",
                "workers", "cache_size", "seed", "host", "port", "verbose"]


@pytest.mark.parametrize("module, name", HARNESS_IMPORTS)
def test_harness_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (module, name)


def test_the_launcher_imports_and_its_parser_has_the_ten_dests():
    spec = importlib.util.spec_from_file_location(
        "bench_serve", os.path.join(REPO_ROOT, "bench", "serve.py"))
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    assert callable(launcher.main) and launcher.PAPER_MIX_X3

    from repro.service.__main__ import build_parser

    arguments = build_parser().parse_args(["--port", "0"])
    for dest in PARSER_DESTS:
        assert hasattr(arguments, dest), dest
    assert arguments.port == 0


def _read_replies(sock, count):
    """``count`` Content-Length replies off one connection, in order."""
    buffer, replies = b"", []
    while len(replies) < count:
        head, separator, rest = buffer.partition(b"\r\n\r\n")
        if separator:
            length = next(int(line.split(b":", 1)[1])
                          for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length:"))
            if len(rest) >= length:
                replies.append(json.loads(rest[:length]))
                buffer = rest[length:]
                continue
        chunk = sock.recv(65536)
        assert chunk, "server hung up mid-reply"
        buffer += chunk
    return replies


def test_the_launcher_call_shapes():
    """``bench/serve.py`` and ``golden.py``, with a tiny dataset and a
    never-started service (``shutdown(drain=True)`` runs it inline),
    then the server lifecycle ``bench/serve.py`` drives, on a started
    one."""
    from repro.cluster.worker import latency_wrapper
    from repro.datasets import build_aggchecker
    from repro.service.http import DEFAULT_DATASETS, ServiceApp, make_server
    from repro.service.service import ServiceConfig, VerificationService
    from repro.service.signals import install_drain_handlers

    assert callable(install_drain_handlers)
    assert "aggchecker" in DEFAULT_DATASETS
    assert latency_wrapper(0.0) is None and callable(latency_wrapper(0.01))
    service = VerificationService(ServiceConfig(
        max_queue_depth=64, per_client_limit=8, max_batch_jobs=8,
        batch_window=0.0, workers=2, cache_size=1024,
    ))
    for method in ("start", "begin_drain", "shutdown"):
        assert callable(getattr(service, method))
    app = ServiceApp(
        service,
        datasets={"tiny": lambda: build_aggchecker(document_count=1,
                                                   total_claims=2)},
        seed=0, client_wrapper=latency_wrapper(0.0),
    )
    assert app.datasets == ["tiny"]
    assert app.warm("tiny") == 1
    status, body = app.submit({"dataset": "tiny", "document": 0})
    assert status == 202 and body["job_id"]
    service.begin_drain()
    service.shutdown(drain=True)
    events = [event.to_dict()
              for event in service.job(body["job_id"]).events_snapshot()]
    assert events[0]["event"] == "job_queued"
    assert events[-1]["event"] == "job_done"
    server = make_server("127.0.0.1", 0, app, verbose=False)
    try:
        assert server.server_address[1] > 0
    finally:
        server.server_close()

    # The lifecycle: serve_forever() on a thread; pipelined POSTs on one
    # connection, as open-llm's Pipeline sends them; a follower from
    # before the drain; shutdown() from a side thread; server_close().
    service = VerificationService(ServiceConfig(workers=2)).start()
    app = ServiceApp(
        service,
        datasets={"tiny": lambda: build_aggchecker(document_count=2,
                                                   total_claims=4)},
        seed=0, client_wrapper=latency_wrapper(0.1),
    )
    app.warm("tiny")
    server = make_server("127.0.0.1", 0, app, verbose=False)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    address = server.server_address[:2]
    try:
        with socket.create_connection(address, timeout=30) as pipe:
            pipe.sendall(b"".join(
                b"POST /v1/verify HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
                for payload in (b'{"dataset": "tiny", "document": 0}',
                                b'{"dataset": "tiny", "document": 1}')
            ))
            first, second = _read_replies(pipe, 2)
        assert first["job_id"] < second["job_id"]      # in order
        follower = http.client.HTTPConnection(*address, timeout=60)
        follower.request("GET", f"{first['events_url']}?wait=1")
        response = follower.getresponse()
        kinds = [json.loads(response.readline())["event"]]
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()
        kinds += [json.loads(line)["event"] for line in response]
        follower.close()
        serving.join(timeout=60)
        assert not serving.is_alive()
    finally:
        server.server_close()
        service.shutdown(drain=True)
    assert kinds[0] == "job_queued" and kinds[-1] == "job_done", kinds


def test_each_workload_keeps_its_side_of_the_claims_pool():
    """``open-llm`` stacks ``latency_wrapper(0.01)`` over the simulated
    model, whose stages must keep fanning out over the claims pool; the
    other three workloads serve the bare model, whose claims run inline.
    A refactor flipping either would silently move a frozen workload to
    the other executor path."""
    from repro.cluster.worker import latency_wrapper
    from repro.datasets import build_aggchecker
    from repro.llm import SimulatedLLM

    world = build_aggchecker(document_count=1, total_claims=2).world
    assert latency_wrapper(0.01)(SimulatedLLM("gpt-4o", world)).blocking
    assert not SimulatedLLM("gpt-4o", world).blocking


def test_the_cache_probe_call_shape():
    """``probes.py`` times an L1-only cache under these exact calls."""
    from repro.cache import TieredCache

    cache = TieredCache("bench-probe", 1024)
    prompt = "Claim: revenue grew 12% in 2021."
    cache.put(("gpt-4o", prompt), prompt)
    assert cache.get(("gpt-4o", prompt)) == prompt


def test_the_frame_probe_round_trips_an_event_frame():
    from repro.cluster.protocol import encode_frame, read_frame

    frame = {"id": 1, "event": {"event": "job_done", "job_id": "job-000001",
                                "claims": 3, "spend": {"tokens": 9},
                                "ts": 1.5}}
    assert read_frame(io.BytesIO(encode_frame(frame))) == frame
