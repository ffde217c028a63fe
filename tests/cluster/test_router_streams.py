"""The router's event buffer and fan-out, with no worker processes.

A ``ClusterRouter`` that was never started has no links, so these tests
feed ``_on_stream_frame`` the frames a worker would send and read the
result the way the HTTP route does, through ``job_events``.
"""

import asyncio
import json

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.router import JobRecord
from repro.service.events import ClaimVerdict, JobDone, JobQueued


@pytest.fixture
def router():
    router = ClusterRouter(ClusterConfig(workers=1, profile="tiny"))
    yield router
    asyncio.run(router.stop())


def open_record(router, job_id="w0g1-job-000001"):
    record = JobRecord(job_id=job_id, worker_id=0,
                       worker_job_id="job-000001", client_id="c",
                       fingerprint="f")
    router.records[job_id] = record
    router._worker_open[0].add(job_id)
    router._client_open["c"] = router._client_open.get("c", 0) + 1
    return record


def frame(record, *events):
    """The ``lines`` frame worker.py sends for one burst."""
    return {
        "id": 1,
        "lines": [json.dumps({**event.to_dict(), "job_id": record.job_id},
                             sort_keys=True) for event in events],
        "last": events[-1].kind,
        "end": events[-1].terminal,
    }


def test_a_terminal_record_is_absorbing(router):
    record = open_record(router)
    router._on_stream_frame(
        record, frame(record, JobQueued(job_id="job-000001")))
    follower: asyncio.Queue = asyncio.Queue()
    record.subscribers.add(follower)

    router._worker_lost(0, "connection closed")
    assert record.terminal and record.last == "worker_lost"
    assert router._total_open() == 0 and "c" not in router._client_open

    # Frames that were already in flight when the link dropped, and the
    # subscription's own synthetic end frame, change nothing.
    router._on_stream_frame(record, frame(
        record, ClaimVerdict(job_id="job-000001"),
        JobDone(job_id="job-000001")))
    router._on_stream_frame(record, {"id": 1, "end": True, "lost": "eof"})

    kinds = [json.loads(line)["event"] for line in record.events]
    assert kinds == ["job_queued", "worker_lost"]
    assert follower.qsize() == 1
    assert follower.get_nowait() == record.events[1:]
    assert router._jobs_lost == 1
    assert router.job_summary(record.job_id)[1]["state"] == "worker_lost"


def test_lines_are_stored_and_served_as_received(router):
    record = open_record(router)
    first = frame(record, JobQueued(job_id="job-000001"),
                  ClaimVerdict(job_id="job-000001", query='é "q"'))
    last = frame(record, JobDone(job_id="job-000001", claims=1))

    async def scenario():
        router._on_stream_frame(record, first)
        stream = await router.job_events(record.job_id, True, 5.0)
        bursts = []

        async def follow():
            async for burst in stream:
                bursts.append(burst)

        task = asyncio.ensure_future(follow())
        await asyncio.sleep(0)               # follower takes the backlog
        assert router._open_streams == 1
        router._on_stream_frame(record, last)
        await asyncio.wait_for(task, 5.0)
        return bursts

    bursts = asyncio.run(scenario())
    assert bursts == [first["lines"], last["lines"]]   # one item per burst
    assert bursts[1] is last["lines"]                  # not re-encoded
    assert router._open_streams == 0 and not record.subscribers
    assert router._events_delivered == 3

    async def replay(wait):
        stream = await router.job_events(record.job_id, wait, 5.0)
        return [burst async for burst in stream]

    # A late follower, waiting or not, gets the backlog as one burst.
    assert asyncio.run(replay(True)) == [record.events]
    assert asyncio.run(replay(False)) == [record.events]


def test_wait_timeout_bounds_the_whole_stream(router):
    record = open_record(router)
    router._on_stream_frame(
        record, frame(record, JobQueued(job_id="job-000001")))

    async def scenario():
        async def trickle():
            while True:                      # an event every 20 ms
                await asyncio.sleep(0.02)
                router._on_stream_frame(record, frame(
                    record, ClaimVerdict(job_id="job-000001")))

        feeder = asyncio.ensure_future(trickle())
        loop = asyncio.get_running_loop()
        started = loop.time()
        stream = await router.job_events(record.job_id, True, 0.2)
        bursts = [burst async for burst in stream]
        feeder.cancel()
        return bursts, loop.time() - started

    bursts, elapsed = asyncio.run(scenario())
    assert 0.2 <= elapsed < 2.0
    assert len(bursts) > 1 and not record.terminal
    # Even an expired deadline serves what is already buffered.
    async def expired():
        stream = await router.job_events(record.job_id, True, 0.0)
        return [burst async for burst in stream]

    assert asyncio.run(expired()) == [record.events]
