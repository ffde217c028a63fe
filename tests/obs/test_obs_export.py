"""Unit tests for the Chrome-trace and Prometheus exporters."""

import io
import json

from repro.obs.export import (
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self, start=1.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def small_tracer():
    tracer = Tracer(trace_id="t-1", clock=FakeClock())
    with tracer.span("doc-1", "document", doc_id="doc-1"):
        with tracer.span("stage", "stage"):
            tracer.record("sql", "sql_execute", 1.1, 1.2, rows=2)
    with tracer.span("doc-2", "document", doc_id="doc-2"):
        pass
    return tracer


class TestChromeTrace:
    def test_structure_and_units(self):
        payload = to_chrome_trace(small_tracer(), process_name="cedar-test")
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert payload["displayTimeUnit"] == "ms"
        assert metadata[0]["args"]["name"] == "cedar-test"
        # One lane per root plus the process-name record.
        assert len(metadata) == 3
        assert len(complete) == 4
        # Timestamps are microseconds relative to the earliest span.
        root = next(e for e in complete if e["name"] == "doc-1")
        assert root["ts"] == 0.0
        sql = next(e for e in complete if e["name"] == "sql")
        assert sql["dur"] == 0.1 * 1e6
        assert sql["cat"] == "sql_execute"
        assert sql["args"]["rows"] == 2
        assert sql["args"]["status"] == "ok"

    def test_roots_get_distinct_lanes(self):
        events = to_chrome_trace(small_tracer())["traceEvents"]
        lanes = {e["name"]: e["tid"] for e in events if e["ph"] == "X"
                 and e["cat"] == "document"}
        assert lanes["doc-1"] != lanes["doc-2"]

    def test_accepts_span_list_and_writes_to_file(self):
        tracer = small_tracer()
        buffer = io.StringIO()
        write_chrome_trace(list(tracer.roots), buffer)
        parsed = json.loads(buffer.getvalue())
        assert parsed == to_chrome_trace(list(tracer.roots))

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(small_tracer(), str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestPrometheus:
    def test_type_lines_and_values(self):
        text = to_prometheus({"queue_depth": 2, "draining": True,
                              "jobs": {"completed": 3}})
        assert text.splitlines() == [
            "# TYPE cedar_queue_depth gauge",
            "cedar_queue_depth 2",
            "# TYPE cedar_draining gauge",
            "cedar_draining 1",
            "# TYPE cedar_jobs_completed gauge",
            "cedar_jobs_completed 3",
        ]
        assert text.endswith("\n")

    def test_strings_and_none_are_skipped(self):
        text = to_prometheus({"cache": None, "name": "x",
                              "ledger": {"cost_usd": 0.25}})
        assert text == ("# TYPE cedar_ledger_cost_usd gauge\n"
                        "cedar_ledger_cost_usd 0.25\n")

    def test_worker_segments_become_one_labelled_family(self):
        text = to_prometheus({
            "jobs": {"completed": 5},
            "cluster": {"shards": {"0": {"restarts": 1},
                                   "1": {"restarts": 0}}},
            "workers": {"0": {"jobs": {"completed": 2}},
                        "1": {"jobs": {"completed": 3}}},
        })
        assert text.splitlines() == [
            "# TYPE cedar_jobs_completed gauge",
            "cedar_jobs_completed 5",
            "# TYPE cedar_cluster_shards_restarts gauge",
            'cedar_cluster_shards_restarts{worker="0"} 1',
            'cedar_cluster_shards_restarts{worker="1"} 0',
            "# TYPE cedar_workers_jobs_completed gauge",
            'cedar_workers_jobs_completed{worker="0"} 2',
            'cedar_workers_jobs_completed{worker="1"} 3',
        ]

    def test_histogram_renders_cumulative_buckets(self):
        lines = to_prometheus({"latency": {
            "count": 3,
            "buckets": {"bounds": [0.1, 1.0], "counts": [1, 1, 1]},
        }}).splitlines()
        assert lines == [
            "# TYPE cedar_latency_count gauge",
            "cedar_latency_count 3",
            "# TYPE cedar_latency_buckets histogram",
            'cedar_latency_buckets_bucket{le="0.1"} 1',
            'cedar_latency_buckets_bucket{le="1"} 2',
            'cedar_latency_buckets_bucket{le="+Inf"} 3',
            "cedar_latency_buckets_count 3",
        ]

    def test_labels_are_escaped(self):
        text = to_prometheus({"workers": {'say "hi"\nback\\slash': {
            "queue_depth": 1,
        }}})
        assert r'worker="say \"hi\"\nback\\slash"' in text

    def test_valid_exposition_shape(self):
        # Every non-comment line is `name{labels} value` with a numeric
        # value — the contract a Prometheus scraper relies on.
        text = to_prometheus({
            "a": 1, "b": {"c-d": 2.5}, "e": False,
            "workers": {"0": {"latency": {"buckets": {
                "bounds": [1.0], "counts": [0, 1]}}}},
        })
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part.startswith("cedar_")
            assert "-" not in name_part.split("{")[0]
            float(value_part)  # must parse
