"""``latency_wrapper``: the worker's simulated-latency hook lives in
runtime packages only (``repro.llm``), not in ``repro.experiments``."""

import inspect

from repro.cluster import worker
from repro.llm import LatencySimulatingClient, ScriptedLLM
from repro.llm import base as llm_base


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
