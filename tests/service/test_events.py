"""``JobEvent.to_dict``: the fields, the kind, nothing else."""

import json
from dataclasses import asdict

import pytest

from repro.service.events import (
    ClaimAccepted,
    ClaimVerdict,
    JobCancelled,
    JobDone,
    JobFailed,
    JobQueued,
    JobStarted,
    StageStarted,
    WorkerLost,
)

EVENTS = [
    JobQueued(job_id="job-000001", priority=2, queue_depth=3),
    ClaimAccepted(job_id="job-000001", claim_id="r1/c1", sentence="s"),
    JobStarted(job_id="job-000001", batch_id=4, batch_jobs=2),
    StageStarted(job_id="job-000001", doc_id="r1/d1", method="oneshot"),
    ClaimVerdict(job_id="job-000001", claim_id="r1/c1", verdict="correct",
                 query="SELECT 1", verified_by="oneshot", attempts=1),
    JobDone(job_id="job-000001", claims=1, flagged=0, latency_seconds=0.5,
            spend={"cost_usd": 0.01, "llm_calls": 2, "tokens": 300}),
    JobDone(job_id="job-000001"),
    JobFailed(job_id="job-000001", error="boom"),
    JobCancelled(job_id="job-000001"),
    WorkerLost(job_id="w0g1-job-000001", worker=0, error="gone"),
]


@pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
def test_to_dict_is_asdict_plus_the_kind(event):
    # In particular the ClassVars ``kind`` and ``terminal`` are not keys.
    assert event.to_dict() == {**asdict(event), "event": event.kind}
    assert json.loads(event.to_json()) == event.to_dict()
    assert event.to_json() == json.dumps(event.to_dict(), sort_keys=True)


def test_every_event_class_is_covered():
    from repro.service import events as module

    classes = {
        value for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, module.JobEvent)
        and value is not module.JobEvent
    }
    assert classes == {type(event) for event in EVENTS}


def test_to_dict_does_not_alias_the_spend():
    spend = {"cost_usd": 0.01, "llm_calls": 2, "tokens": 300}
    event = JobDone(job_id="job-000001", spend=spend)
    event.to_dict()["spend"]["tokens"] = 0
    assert event.spend == {"cost_usd": 0.01, "llm_calls": 2, "tokens": 300}
