"""``latency_wrapper``: the worker's simulated-latency hook lives in
runtime packages only (``repro.llm``), not in ``repro.experiments``."""

import inspect

from repro.cluster import worker
from repro.llm import (
    CachingLLMClient,
    LatencySimulatingClient,
    LLMCache,
    ScriptedLLM,
)
from repro.llm import base as llm_base
from repro.obs.tracer import Tracer


def test_wrapper_sleeps_the_scaled_latency(monkeypatch):
    slept = []
    monkeypatch.setattr(llm_base.time, "sleep", slept.append)
    assert worker.latency_wrapper(0.0) is None
    client = worker.latency_wrapper(0.5)(ScriptedLLM(["ok"]))
    assert isinstance(client, LatencySimulatingClient)
    response = client.complete("prompt")
    assert response.latency_seconds > 0
    assert slept == [response.latency_seconds * 0.5]


def test_worker_does_not_import_experiments():
    assert "repro.experiments" not in inspect.getsource(worker)


def test_the_wait_is_inside_the_model_calls_span(monkeypatch):
    """A trace files the simulated wait as model time, where a hosted
    client's network wait is. The response cache still stamps the span
    the call returned through, and a hit keeps its zero-length span."""
    now = [0.0]

    def sleep(seconds):
        now[0] += seconds

    monkeypatch.setattr(llm_base.time, "sleep", sleep)
    tracer = Tracer(clock=lambda: now[0])
    client = CachingLLMClient(
        worker.latency_wrapper(0.5)(ScriptedLLM(["ok"])), LLMCache(8),
    )
    with tracer.activated():
        miss = client.complete("prompt")
        client.complete("prompt")
        bypass = client.complete("prompt", temperature=0.5)

    spans = tracer.roots
    assert [span.kind for span in spans] == ["llm_call"] * 3
    assert [span.attributes["cache"] for span in spans] == \
        ["miss", "hit", "bypass"]
    assert spans[0].duration == miss.latency_seconds * 0.5 > 0
    assert spans[1].duration == 0.0
    assert spans[2].duration == bypass.latency_seconds * 0.5
