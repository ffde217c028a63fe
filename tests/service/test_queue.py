"""Unit tests for the service's queue, admission types, and histogram."""

import threading

import pytest

from repro.service import (
    AdmissionError,
    BoundedJobQueue,
    LatencyHistogram,
    RejectionReason,
)
from repro.service.queue import REASON_QUEUE_FULL


class TestBoundedJobQueue:
    def test_fifo_within_equal_priority(self):
        queue = BoundedJobQueue(8)
        for name in ("a", "b", "c"):
            queue.offer(name)
        assert [queue.pop(0) for _ in range(3)] == ["a", "b", "c"]

    def test_lower_priority_number_pops_first(self):
        queue = BoundedJobQueue(8)
        queue.offer("low", priority=5)
        queue.offer("high", priority=-1)
        queue.offer("mid", priority=0)
        assert [queue.pop(0) for _ in range(3)] == ["high", "mid", "low"]

    def test_full_queue_rejects_with_structured_reason(self):
        queue = BoundedJobQueue(2)
        queue.offer("a")
        queue.offer("b")
        with pytest.raises(AdmissionError) as excinfo:
            queue.offer("c")
        assert excinfo.value.reason.code == REASON_QUEUE_FULL
        assert isinstance(excinfo.value.reason, RejectionReason)
        assert excinfo.value.reason.to_dict()["code"] == REASON_QUEUE_FULL
        # Rejection is non-destructive: draining frees a slot again.
        assert queue.pop(0) == "a"
        queue.offer("c")
        assert len(queue) == 2

    def test_pop_timeout_returns_none(self):
        queue = BoundedJobQueue(2)
        assert queue.pop(timeout=0) is None
        assert queue.pop(timeout=0.01) is None

    def test_pop_wakes_on_offer_from_other_thread(self):
        queue = BoundedJobQueue(2)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(queue.pop(timeout=5.0))
        )
        thread.start()
        queue.offer("x")
        thread.join(timeout=5.0)
        assert result == ["x"]

    def test_close_wakes_a_blocked_pop(self):
        queue = BoundedJobQueue(2)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(queue.pop())  # no timeout
        )
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result == [None]

    def test_closed_queue_still_hands_out_what_it_holds(self):
        queue = BoundedJobQueue(2)
        queue.offer("a")
        queue.close()
        assert queue.pop() == "a"
        assert queue.pop() is None

    def test_remove_is_identity_based(self):
        queue = BoundedJobQueue(8)
        first, twin = "job", "job"[:]  # equal strings, possibly interned
        box_a, box_b = [first], [twin]
        queue.offer(box_a)
        queue.offer(box_b)
        assert queue.remove(box_b) is True
        assert queue.remove(box_b) is False
        assert queue.pop(0) is box_a


class TestLatencyHistogram:
    def test_quantiles_of_known_distribution(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(0.010)
        for _ in range(10):
            histogram.record(1.0)
        # p50 falls in the bucket holding the 10 ms samples; p95 in the
        # 1 s bucket. Bucket upper bounds are powers of two over 1 ms.
        assert 0.010 <= histogram.quantile(0.5) <= 0.016
        assert 1.0 <= histogram.quantile(0.95) <= 1.024
        assert histogram.count == 100

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p95_seconds"] == 0.0

    def test_overflow_bucket_reports_max(self):
        histogram = LatencyHistogram(first_bound=0.001, factor=2.0, buckets=3)
        histogram.record(50.0)   # way past the last bound (4 ms)
        assert histogram.quantile(0.95) == 50.0
        assert histogram.snapshot()["max_seconds"] == 50.0

    def test_snapshot_mean(self):
        histogram = LatencyHistogram()
        histogram.record(0.1)
        histogram.record(0.3)
        assert histogram.snapshot()["mean_seconds"] == pytest.approx(0.2)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_snapshot_exposes_bucket_bounds_and_counts(self):
        histogram = LatencyHistogram(first_bound=0.001, factor=2.0,
                                     buckets=4)
        histogram.record(0.0005)   # first bucket (≤1 ms)
        histogram.record(0.003)    # third bucket (≤4 ms)
        histogram.record(99.0)     # overflow
        buckets = histogram.snapshot()["buckets"]
        assert buckets["bounds"] == [0.001, 0.002, 0.004, 0.008]
        # One count per bound plus the trailing overflow bucket.
        assert buckets["counts"] == [1, 0, 1, 0, 1]
        assert sum(buckets["counts"]) == histogram.count

    def test_overflow_bucket_lands_in_final_count(self):
        histogram = LatencyHistogram(first_bound=0.001, factor=2.0,
                                     buckets=3)
        histogram.record(50.0)
        counts = histogram.snapshot()["buckets"]["counts"]
        assert counts == [0, 0, 0, 1]

    def test_quantiles_are_monotone_in_q(self):
        histogram = LatencyHistogram()
        for value in (0.002, 0.002, 0.015, 0.3, 0.3, 0.9, 7.0, 120.0):
            histogram.record(value)
        quantiles = [histogram.quantile(q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_quantile_extremes(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        histogram.record(2.0)
        # q=0 reports from the lowest occupied bucket, q=1 the maximum.
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)
        assert histogram.quantile(1.0) == pytest.approx(2.0, rel=0.05)

    def test_snapshot_sum_seconds(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        histogram.record(0.75)
        assert histogram.snapshot()["sum_seconds"] == pytest.approx(1.0)
