"""The generator against a stub ``/v1`` server: no CEDAR process runs.

The stub speaks just enough of the API — ``POST /v1/verify`` and the
chunked ndjson of ``GET /v1/jobs/<id>/events`` — and is scripted per
document index, so each failure mode can be put on the wire exactly.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cedarbench import analysis, client, layers
from cedarbench.golden import Reference
from cedarbench.workloads import WORKLOADS, PlannedJob

CLAIMS = ("doc/c0", "doc/c1")
VERDICTS = {"doc/c0": "correct", "doc/c1": "incorrect"}


class StubHandler(BaseHTTPRequestHandler):
    """Scripted by the ``document`` index of the submission:

    0 completes, 1 ends ``job_failed``, 2 answers 429 forever, 3 answers
    429 once and then completes, 4 completes with one verdict missing,
    5 completes with a wrong verdict, 6 completes after sitting on the
    POST reply for 150 ms.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _json(self, status, body, headers=()):
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):
        state = self.server.state
        payload = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))
        script = payload["document"]
        with state["lock"]:
            state["posts"] += 1
            seen_before = script in state["refused_once"]
            state["refused_once"].add(script)
        if script == 2 or (script == 3 and not seen_before):
            self._json(429, {"rejected": {"code": "queue_full"},
                             "retry_after_seconds": 0},
                       [("Retry-After", "0.05")])
            return
        with state["lock"]:
            state["jobs"] += 1
            job_id = f"job-{state['jobs']:06d}"
            state["scripts"][job_id] = (script, time.time())
        if script == 6:
            time.sleep(0.15)
        self._json(202, {"job_id": job_id, "claims": len(CLAIMS)})

    def do_GET(self):
        job_id = self.path.split("/")[3]
        script, queued = self.server.state["scripts"][job_id]
        started = queued + 0.010
        events = [{"event": "job_queued", "job_id": job_id, "ts": queued}]
        events += [{"event": "claim_accepted", "claim_id": f"r1/{claim}",
                    "sentence": f"sentence of {claim}", "ts": queued}
                   for claim in CLAIMS]
        events.append({"event": "job_started", "batch_jobs": 2,
                       "ts": started})
        if script == 1:
            events.append({"event": "job_failed", "error": "boom",
                           "ts": started + 0.001})
        else:
            verdicts = dict(VERDICTS)
            if script == 4:
                del verdicts["doc/c1"]
            if script == 5:
                verdicts["doc/c1"] = "correct"
            events += [
                {"event": "claim_verdict", "claim_id": f"r1/{claim}",
                 "verdict": verdict, "query": "SELECT 1",
                 "ts": started + 0.002}
                for claim, verdict in verdicts.items()
            ]
            events.append({
                "event": "job_done", "claims": len(CLAIMS),
                "spend": {"cost_usd": 0.002, "llm_calls": 2, "tokens": 10},
                "ts": started + 0.005,
            })
        self.send_response(200)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        time.sleep(0.02)              # the job "runs" while we follow it
        for event in events:
            line = (json.dumps(event) + "\n").encode()
            self.wfile.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        self.wfile.write(b"0\r\n\r\n")


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.state = {"lock": threading.Lock(), "posts": 0, "jobs": 0,
                    "scripts": {}, "refused_once": set()}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


REFERENCE = Reference({
    f"stub/{index}": {
        "digest": Reference.digest_of(VERDICTS),
        "claims": {"doc/c0": "CC", "doc/c1": "II"},
    }
    for index in range(7)
})


def job(index, script, due=None):
    return PlannedJob(index, "stub", script, "alpha", 0, due=due,
                      rate=10.0 if due is not None else None)


def test_closed_loop_counts_refusals_failures_and_bad_outputs(stub):
    scripts = [0, 1, 2, 3, 4, 5, 0, 0]
    budget = client.Budget(2)
    records = client.closed_loop(
        stub.server_address[1], [job(i, s) for i, s in enumerate(scripts)],
        clients=2, budget=budget)
    assert budget.peak == {"threads": 2, "connections": 2}
    outcomes = [record.outcome for record in records]
    assert outcomes == ["job_done", "job_failed", "refused", "job_done",
                        "job_done", "job_done", "job_done", "job_done"]
    assert records[2].retried and records[2].status == 429
    assert records[3].retried and records[3].status == 202
    # One honoured Retry-After each: two POSTs for scripts 2 and 3.
    assert stub.state["posts"] == len(scripts) + 2

    problems = analysis.check_outputs(records, REFERENCE,
                                      first_submission=True)
    assert sorted(problems) == [1, 2, 4, 5]
    assert "job_failed" in problems[1] and "boom" in problems[1]
    assert "refused" in problems[2]
    assert "1 verdicts for 2 promised" in problems[4]
    assert "digest differs" in problems[5]
    # A repeat submission is only checked for shape, not for the digest.
    assert sorted(analysis.check_outputs(records, REFERENCE, False)) == [
        1, 2, 4]

    workload = WORKLOADS["hot-fit"]
    metrics = analysis.end_to_end(workload, records, problems, REFERENCE)
    assert metrics["failed_share"][0] == 4 / 8
    # Failed and refused jobs miss the limit whatever their latency.
    assert metrics["slo_goodput_share"][0] == 4 / 8
    assert metrics["latency_samples"][0] == 4
    assert metrics["cents_per_claim"][0] == pytest.approx(0.1)
    assert metrics["verdict_f1"][0] == 1.0
    assert metrics["gen_late_p95_ms"][0] == 0.0
    # Four latency samples carry a median and no tail.
    assert "job_latency_p50_ms" in metrics
    assert "job_latency_p75_ms" not in metrics
    assert "job_latency_p95_ms" not in metrics

    events = analysis.event_layers(records, problems)
    assert events["service.queue.wait_ms"][0] == pytest.approx(10.0, abs=0.01)
    assert events["core.verify_ms"][0] == pytest.approx(5.0, abs=0.01)
    assert events["service.service.batch_jobs_mean"][0] == 2.0
    assert events["service.events.per_job"][0] == 7.0
    assert events["service.events.tail_ms"][0] > 0.0


def test_open_loop_times_from_the_due_time_and_reports_lateness(stub):
    dues = [0.05 * k for k in range(1, 9)]
    budget = client.Budget(2)
    started = time.time()
    records = client.open_loop(
        stub.server_address[1],
        [job(i, 0, due) for i, due in enumerate(dues)],
        budget, lead_seconds=0.1)
    assert budget.peak == {"threads": 2, "connections": 2}
    assert all(record.done for record in records)
    for record, due in zip(records, dues):
        # Wall-clock due = epoch + planned offset; never sent early.
        assert record.due == pytest.approx(started + 0.1 + due, abs=0.05)
        assert record.sent >= record.due
        assert record.origin == record.due
    # The stub finishes a job 15 ms after it is queued: latency from the
    # due time is that plus however late the POST went out and arrived.
    metrics = analysis.end_to_end(
        WORKLOADS["open-llm"], records, {}, REFERENCE)
    lateness = [(r.sent - r.due) * 1e3 for r in records]
    # p95 of eight sends is the latest one: no support rule on a gate.
    assert metrics["gen_late_p95_ms"][0] == pytest.approx(
        max(lateness), abs=1e-6)
    assert 15.0 <= metrics["job_latency_p50_ms"][0] < 15.0 + 50.0
    for record in records:
        latency = (record.ts_terminal - record.due) * 1e3
        assert latency >= 15.0 + (record.sent - record.due) * 1e3 - 0.01
    # Region time runs from the first due time to the last job_done.
    assert analysis.region_seconds(records) == pytest.approx(
        records[-1].ts_terminal - records[0].due)


def test_open_loop_retry_does_not_hold_up_later_jobs(stub):
    budget = client.Budget(2)
    records = client.open_loop(
        stub.server_address[1],
        [job(0, 3, 0.01), job(1, 0, 0.02), job(2, 0, 0.03)],
        budget, lead_seconds=0.05)
    assert [record.outcome for record in records] == ["job_done"] * 3
    assert records[0].retried
    # The retried job went out after its Retry-After; the others on time.
    assert records[0].accepted > records[1].accepted
    assert records[1].sent - records[1].due < 0.04


def test_open_loop_sender_does_not_wait_for_a_slow_reply(stub):
    budget = client.Budget(2)
    records = client.open_loop(
        stub.server_address[1],
        [job(0, 6, 0.01), job(1, 0, 0.03), job(2, 0, 0.05)],
        budget, lead_seconds=0.05)
    assert [record.outcome for record in records] == ["job_done"] * 3
    # The first reply took 150 ms; the next two POSTs went out on time
    # all the same (pipelined), and were answered after it, in order.
    assert records[0].accepted - records[0].sent >= 0.15
    for record in records[1:]:
        assert record.sent - record.due < 0.02
        assert record.accepted >= records[0].accepted
    assert budget.peak == {"threads": 2, "connections": 2}


def test_pipeline_gives_up_on_a_reply_that_never_comes(stub):
    budget = client.Budget(2)
    record = client.JobRecord(plan=job(0, 6))
    with client.Pipeline(stub.server_address[1], budget,
                         timeout=0.05) as pipeline:
        record.sent = time.time()
        pipeline.send(record)
        assert list(pipeline.replies(0.01)) == []
        with pytest.raises(TimeoutError):
            list(pipeline.replies(0.06))
        pipeline.abandon(TimeoutError("gone"))
    assert record.outcome == "error:TimeoutError"
    assert not pipeline.inflight


def test_budget_refuses_a_third_connection():
    budget = client.Budget(2)
    budget.acquire("connections")
    budget.acquire("connections")
    with pytest.raises(AssertionError, match="over its budget of 2"):
        budget.acquire("connections")


def test_stats_layers_take_deltas_and_sum_over_shards():
    def shard(calls, hits, lookups, rejected=0):
        return {"ledger": {"calls": calls, "tokens": calls * 100,
                           "cost_usd": calls * 0.001, "retries": 0},
                "cache": {"hits": hits, "lookups": lookups, "bypasses": 0,
                          "evictions": 0},
                "jobs": {"rejected": rejected},
                "sql": {"executions": calls,
                        "optimizer": {"plans_vectorized": calls * 3,
                                      "plans_row_path": calls}}}

    before = {"cluster": {"shards": {"0": {"routed_total": 10},
                                     "1": {"routed_total": 10}},
                          "jobs": {"shed": {}}},
              "workers": {"0": shard(10, 0, 10), "1": shard(10, 0, 10)}}
    after = {"cluster": {"shards": {"0": {"routed_total": 40},
                                    "1": {"routed_total": 20}},
                         "jobs": {"shed": {"queue_full": 2}}},
             "workers": {"0": shard(14, 90, 110), "1": shard(12, 0, 10, 1)}}
    records = [client.JobRecord(plan=job(0, 0)) for _ in range(3)]
    for record in records:
        record.outcome = "job_done"
        record.verdicts = dict(VERDICTS)
        record.spend = {"cost_usd": 0.002}
    metrics = layers.stats_layers(before, after, records)
    assert metrics["llm.calls_per_claim"][0] == 6 / 6
    assert metrics["llm.cache_hit_rate"][0] == 0.9
    assert metrics["sqlengine.vectorized_share"][0] == 0.75
    assert metrics["service.queue.rejected"][0] == 3.0
    assert metrics["cluster.router.shard_imbalance"][0] == 1.5
    assert metrics["core.ledger_conserved"][0] == 1.0
    # A single process has no router: the metric is absent, not zero.
    single = layers.stats_layers(shard(0, 0, 0), shard(6, 1, 2), records)
    assert "cluster.router.shard_imbalance" not in single
