"""The ``Job`` batch drain: every event from index *i* on, per wake-up.

``Job.events_from`` is what every delivery path sits on — the worker's
``subscribe`` frames, the HTTP front door, ``JobHandle.events()`` — so
its contract is pinned as a property over arbitrary interleavings of
emits, a cancel and drains from two followers.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.events import ClaimVerdict, JobCancelled, JobDone
from repro.service.service import Job, JobHandle

STEPS = st.lists(
    st.sampled_from(["emit", "emit", "drain0", "drain1", "cancel", "end"]),
    max_size=40,
)


def make_job():
    return Job("job-000001", documents=[], schedule=[], client_id="c",
               priority=0)


class Follower:
    def __init__(self, job):
        self.job = job
        self.bursts = []

    @property
    def seen(self):
        return [event for burst in self.bursts for event in burst]

    def drain(self):
        """One wake-up's worth; False once the stream has ended."""
        burst = self.job.events_from(len(self.seen), 0)
        if burst:
            self.bursts.append(burst)
        return bool(burst)


@settings(max_examples=200, deadline=None)
@given(STEPS)
def test_any_interleaving_delivers_the_stream_once_in_order(steps):
    job = make_job()
    followers = [Follower(job), Follower(job)]
    accepted = []            # the model: what the stream should hold
    cancelled = closed = False
    for number, step in enumerate(steps):
        if step == "emit":
            event = ClaimVerdict(job_id=job.job_id, claim_id=f"c{number}")
            job.emit(event)
            if not (cancelled or closed):
                accepted.append(event)
        elif step == "cancel":
            if job.request_cancel():
                cancelled = True
        elif step == "end":
            # What _finalize does: the terminal event is forced through.
            event = (JobCancelled if cancelled else JobDone)(job.job_id)
            job.emit(event, force=True)
            if not closed:
                accepted.append(event)
                closed = True
        else:
            follower = followers[int(step[-1])]
            behind = len(follower.seen) < len(accepted)
            if behind or closed:
                assert follower.drain() == behind
            else:
                with pytest.raises(TimeoutError):
                    follower.drain()
        assert job.events_snapshot() == accepted
    if not closed:
        job.emit(JobDone(job.job_id), force=True)
    snapshot = job.events_snapshot()
    late = Follower(job)
    for follower in (*followers, late):
        while follower.drain():
            pass
        seen = follower.seen
        assert seen == snapshot                       # all, in order
        assert len({id(event) for event in seen}) == len(seen)  # once
        assert [event.terminal for event in seen] == (
            [False] * (len(seen) - 1) + [True]        # terminal is last
        )
        assert all(follower.bursts)                   # no empty burst
    assert late.bursts == [snapshot]                  # backlog: one burst


def test_timeout_raises_while_the_stream_is_open_and_silent():
    job = make_job()
    with pytest.raises(TimeoutError):
        job.events_from(0, 0.01)
    job.emit(ClaimVerdict(job_id=job.job_id))
    assert len(job.events_from(0, 0.01)) == 1
    with pytest.raises(TimeoutError):
        job.events_from(1, 0)
    job.emit(JobDone(job.job_id))
    assert job.events_from(2, 0) == []                # ended, not late
    assert job.wait(0)


def test_bursts_follow_a_live_job_across_threads():
    """Four followers and two emitters on a shortened switch interval:
    every follower sees every event exactly once, terminal last."""
    job = make_job()
    handle = JobHandle(job, service=None)
    seen = [[] for _ in range(4)]

    def follow(bursts):
        bursts.extend(handle.bursts(timeout=30))

    def emit(tag):
        for index in range(300):
            job.emit(ClaimVerdict(job_id=job.job_id,
                                  claim_id=f"{tag}{index}"))

    followers = [threading.Thread(target=follow, args=(bursts,))
                 for bursts in seen]
    emitters = [threading.Thread(target=emit, args=(tag,)) for tag in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in (*followers, *emitters):
            thread.start()
        for thread in emitters:
            thread.join(timeout=30)
        job.emit(JobDone(job.job_id))
        for thread in followers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (*followers, *emitters))
    snapshot = job.events_snapshot()
    assert len(snapshot) == 601
    for bursts in seen:
        assert [event for burst in bursts for event in burst] == snapshot
        assert all(bursts) and bursts[-1][-1].terminal
    # The typed per-event API is the same stream, flattened.
    assert list(handle.events(timeout=0)) == snapshot


def test_a_deadline_bounds_the_whole_stream_not_each_wait():
    job = make_job()
    handle = JobHandle(job, service=None)
    stop = threading.Event()

    def trickle():
        while not stop.wait(0.02):        # an event every 20 ms, forever
            job.emit(ClaimVerdict(job_id=job.job_id))

    emitter = threading.Thread(target=trickle)
    emitter.start()
    try:
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            for _ in handle.bursts(deadline=started + 0.2):
                pass
        assert 0.2 <= time.monotonic() - started < 2.0
    finally:
        stop.set()
        emitter.join()
