"""What the frozen benchmark harness uses of ``src/``, pinned in tier-1.

``bench/`` and ``tests/bench/`` may not change in a PR that claims a
gain, and they import ``src/`` directly — so a rename here breaks the
benchmark run long after ``make test`` went green. Every name, keyword
and call shape below is one the harness depends on (``bench/serve.py``,
``bench/cedarbench/probes.py``, ``bench/cedarbench/golden.py``); when
one has to change, the benchmark changes in its own PR first.
"""

import importlib
import importlib.util
import io
import os

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


def test_the_launcher_call_shapes():
    """``bench/serve.py`` and ``golden.py``, with a tiny dataset and a
    never-started service (``shutdown(drain=True)`` runs it inline)."""
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


def test_the_frame_probe_round_trips_an_event_frame():
    from repro.cluster.protocol import encode_frame, read_frame

    frame = {"id": 1, "event": {"event": "job_done", "job_id": "job-000001",
                                "claims": 3, "spend": {"tokens": 9},
                                "ts": 1.5}}
    assert read_frame(io.BytesIO(encode_frame(frame))) == frame
