"""From job records to metrics: end-to-end, and the event-derived layers.

A job counts as *failed* when it was refused (after its one honoured
``Retry-After``), ended in anything but ``job_done``, timed out, or
failed the output check. A failed job misses the latency limit by
definition and contributes no latency sample.
"""

from __future__ import annotations

from typing import Sequence

from . import measure
from .client import JobRecord
from .golden import Reference
from .workloads import Workload


def check_outputs(records: Sequence[JobRecord], reference: Reference,
                  first_submission: bool) -> dict[int, str]:
    """Why each failing job failed, keyed by plan index.

    Every job must end ``job_done`` and carry as many ``claim_verdict``
    events as the 202 reply promised claims; a first submission of a
    document must also reproduce the reference's verdict digest.
    """
    problems: dict[int, str] = {}
    for record in records:
        plan = record.plan
        if not record.done:
            problems[plan.index] = (
                f"{record.outcome or 'no outcome'}"
                + (f" ({record.error})" if record.error else "")
            )
        elif len(record.verdicts) != record.claims_promised:
            problems[plan.index] = (
                f"{len(record.verdicts)} verdicts for "
                f"{record.claims_promised} promised claims"
            )
        elif first_submission:
            expected = reference.digest(plan.dataset, plan.document)
            if reference.digest_of(record.verdicts) != expected:
                problems[plan.index] = (
                    f"verdict digest differs from the reference for "
                    f"{plan.dataset}/{plan.document}"
                )
    return problems


def verdict_f1(records: Sequence[JobRecord], reference: Reference) -> float:
    """F1 of flagged-incorrect claims against the ground-truth labels."""
    tp = fp = fn = 0
    for record in records:
        if not record.done:
            continue
        truth = reference.truth(record.plan.dataset, record.plan.document)
        for claim_id, verdict in record.verdicts.items():
            flagged = verdict == "incorrect"
            incorrect = not truth.get(claim_id, True)
            tp += flagged and incorrect
            fp += flagged and not incorrect
            fn += incorrect and not flagged
    if tp == 0:
        return 0.0
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def region_seconds(records: Sequence[JobRecord]) -> float:
    """Wall time of the timed region, from the records alone.

    Closed loop: first send to last terminal line read. Open loop: the
    first due time to the last terminal event on the server's clock —
    the collector reading a finished stream late adds nothing.
    """
    starts = [r.origin for r in records if r.origin]
    ends = [r.ts_terminal if r.due is not None and r.ts_terminal
            else r.ended for r in records]
    return max(ends) - min(starts) if starts and ends else 0.0


def _latency_ms(record: JobRecord) -> float:
    # Open loop: the server-side terminal stamp against the due time.
    end = record.ts_terminal if record.due is not None else record.ended
    return (end - record.origin) * 1e3


def _first_verdict_ms(record: JobRecord) -> float:
    seen = (record.ts_first_verdict if record.due is not None
            else record.first_verdict_seen)
    return (seen - record.origin) * 1e3


#: The tails a timing is reported at, each under its own name and only
#: when the sample supports it (``measure.supports``): p75 from 40
#: samples, p95 from 200.
TAILS = (75, 95)


def tail_metrics(name: str, values: Sequence[float]) -> dict:
    """``name`` holds ``{q}``: one metric per tail the sample supports."""
    return {
        name.format(q=q): (measure.percentile(values, q), "ms")
        for q in TAILS if measure.supports(len(values), q)
    }


def end_to_end(workload: Workload, records: Sequence[JobRecord],
               problems: dict[int, str], reference: Reference) -> dict:
    """The per-workload end-to-end metrics (name -> (value, unit)),
    minus the ones the harness measures around the region itself
    (CPU, RSS, set-up)."""
    good = [r for r in records if r.plan.index not in problems]
    latencies = [_latency_ms(r) for r in good]
    seconds = region_seconds(records)
    claims = sum(len(r.verdicts) for r in good)
    lateness = [(r.sent - r.due) * 1e3 for r in records if r.due is not None]
    return {
        "job_latency_p50_ms": (measure.percentile(latencies, 50), "ms"),
        **tail_metrics("job_latency_p{q}_ms", latencies),
        "first_verdict_p50_ms": (
            measure.percentile([_first_verdict_ms(r) for r in good], 50),
            "ms"),
        "throughput_jobs_per_s": (len(good) / seconds, "jobs/s"),
        "slo_goodput_share": (
            sum(1 for ms in latencies if ms <= workload.limit_ms)
            / len(records), "share"),
        "cents_per_claim": (
            100.0 * sum(r.spend.get("cost_usd", 0.0) for r in good)
            / max(1, claims), "cents"),
        "verdict_f1": (verdict_f1(good, reference), "F1"),
        # 0 on a healthy run / a closed loop, so BENCHMARK.json cannot
        # put a relative bound on these two; the command's exit code and
        # ``Result.valid`` gate on them instead.
        "failed_share": (len(problems) / len(records), "share"),
        "gen_late_p95_ms": (
            measure.nearest_rank(lateness, 95) if lateness else 0.0, "ms"),
        "latency_samples": (len(latencies), "count"),
    }


def event_layers(records: Sequence[JobRecord],
                 problems: dict[int, str]) -> dict:
    """Per-layer numbers every run can take from the event streams."""
    good = [r for r in records if r.plan.index not in problems]
    if not good:
        return {}
    waits = [(r.ts_started - r.ts_queued) * 1e3 for r in good]
    verifies = [(r.ts_terminal - r.ts_started) * 1e3 for r in good]
    submits = [(r.accepted - r.sent) * 1e3 for r in good if not r.retried]
    tails = [(r.ended - r.ts_terminal) * 1e3 for r in good
             if r.followed_live]
    latencies = [_latency_ms(r) for r in good]
    overheads = [
        latency - (r.ts_terminal - r.ts_queued) * 1e3
        for latency, r in zip(latencies, good)
    ]
    return {
        "service.http.submit_ms": (measure.median(submits), "ms"),
        "service.queue.wait_ms": (measure.median(waits), "ms"),
        **tail_metrics("service.queue.wait_p{q}_ms", waits),
        "service.service.batch_jobs_mean": (
            sum(r.batch_jobs for r in good) / len(good), "jobs"),
        "core.verify_ms": (measure.median(verifies), "ms"),
        **tail_metrics("core.verify_p{q}_ms", verifies),
        "service.events.tail_ms": (measure.median(tails), "ms"),
        "service.events.per_job": (
            sum(r.events for r in good) / len(good), "count"),
        "service.events.bytes_per_job": (
            sum(r.event_bytes for r in good) / len(good), "B"),
        "frontdoor.overhead_ms": (measure.median(overheads), "ms"),
        "service.drift_ratio": (measure.drift_ratio(latencies), "ratio"),
    }
