"""The bench's arithmetic: percentile rule, spread, drift, /proc parsing."""

import pytest

from cedarbench import measure


def test_a_tail_needs_ten_samples_beyond_it():
    # The highest percentile a sample supports: p75 from 40 samples,
    # p90 from 100, p95 from 200, p99 from 1,000; the median always.
    for count, q, supported in (
            (1, 50, True), (39, 75, False), (40, 75, True),
            (99, 90, False), (100, 90, True), (199, 95, False),
            (200, 95, True), (999, 99, False), (1000, 99, True)):
        assert measure.supports(count, q) is supported, (count, q)
    assert not measure.supports(0, 50)


def test_p95_is_refused_under_200_samples():
    values = [float(i) for i in range(1, 200)]        # 199 samples
    with pytest.raises(measure.TooFewSamples, match="p95 of 199"):
        measure.percentile(values, 95)
    values.append(200.0)
    # Nearest rank: the 190th of 200, leaving exactly ten beyond it.
    assert measure.percentile(values, 95) == 190.0


def test_median_is_always_available_and_nearest_rank():
    assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 50)


def test_nearest_rank_gates_without_the_support_rule():
    # A validity check (how late did the generator run) needs a number
    # from whatever sample there is.
    assert measure.nearest_rank([float(i) for i in range(1, 9)], 95) == 8.0
    assert measure.nearest_rank([float(i) for i in range(1, 101)], 95) == 95.0


def test_spread_is_the_drivers_interquartile_share():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) -> 11.75, 14.5, 17.25
    assert measure.spread(values) == pytest.approx(5.5 / 14.5)
    assert measure.spread([5.0]) == 0.0
    assert measure.spread([7.0] * 10) == 0.0


def test_drift_ratio_compares_last_tenth_with_first_tenth():
    latencies = [10.0] * 10 + [50.0] * 80 + [30.0] * 10
    assert measure.drift_ratio(latencies) == 3.0
    assert measure.drift_ratio([4.0]) == 1.0


def test_proc_stat_cpu_survives_spaces_and_parens_in_the_command():
    line = ("4242 (python -m (repro) svc) S 1 4242 4242 0 -1 4194304 "
            "9000 0 0 0 321 79 5 6 20 0 7 0 123456 1000000 2000 "
            "18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
    # utime 321 + stime 79 ticks at 100 Hz (children's 5 and 6 excluded).
    assert measure.parse_proc_stat_cpu_seconds(line, 100) == 4.0


def test_proc_status_reads_vmhwm_in_kib():
    status = "Name:\tpython\nVmPeak:\t  999 kB\nVmHWM:\t   47360 kB\n"
    assert measure.parse_proc_status_kib(status, "VmHWM") == 47360
    assert measure.parse_proc_status_kib(status, "VmSwap") == 0


def test_cpu_and_rss_of_this_process_are_readable():
    import os

    pids = measure.process_tree(os.getpid())
    assert os.getpid() in pids
    assert measure.cpu_seconds(pids) >= 0.0
    assert measure.peak_rss_mib(pids) > 1.0
    assert measure.cpu_seconds([2 ** 30]) == 0.0      # vanished pid
