"""Sample statistics and ``/proc`` readers — the bench's arithmetic.

Nothing here knows about CEDAR; every function is pure (or reads one
``/proc`` file) so the tier-1 tests can pin the rules down exactly.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Iterable, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the percentile that was asked for."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples can carry the ``q``-th percentile: the
    median always, a tail only with >= 10 samples beyond it (p75 from
    40 samples, p95 from 200)."""
    return count > 0 and (
        q <= 50.0 or samples_beyond(count, q) >= MIN_SAMPLES_BEYOND)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample, no questions
    asked — for validity checks, where the number gates a run and is
    not itself a result."""
    rank = max(1, math.ceil(len(values) * q / 100.0))
    return sorted(values)[rank - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses a tail the sample cannot support.

    ``percentile(xs, 95)`` raises :class:`TooFewSamples` under 200
    samples, because fewer than ten would lie beyond the result.
    """
    if not supports(len(values), q):
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves "
            f"{samples_beyond(len(values), q)} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    return nearest_rank(values, q)


def median(values: Iterable[float]) -> float:
    """Plain median (0.0 of nothing, so absent layers print as 0)."""
    data = list(values)
    return statistics.median(data) if data else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same arithmetic the driver applies to ten runs:
    ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def drift_ratio(latencies_in_order: Sequence[float]) -> float:
    """Median latency of the last tenth of jobs over the first tenth."""
    tenth = max(1, len(latencies_in_order) // 10)
    first = median(latencies_in_order[:tenth])
    last = median(latencies_in_order[-tenth:])
    return last / first if first else 0.0


# -- /proc -------------------------------------------------------------------


def parse_proc_stat_cpu_seconds(stat_line: str, ticks_per_second: int) -> float:
    """utime + stime (fields 14 and 15) of one ``/proc/<pid>/stat`` line.

    The command name (field 2) may itself contain spaces and brackets,
    so fields are counted from the *last* closing parenthesis.
    """
    after_comm = stat_line[stat_line.rindex(")") + 2:].split()
    # after_comm[0] is field 3 (state); utime is field 14, stime 15.
    utime, stime = int(after_comm[11]), int(after_comm[12])
    return (utime + stime) / ticks_per_second


def parse_proc_status_kib(status_text: str, key: str) -> int:
    """One ``Vm*`` line of ``/proc/<pid>/status`` in KiB (0 if absent)."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (router -> workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                line = handle.read()
        except OSError:
            continue  # the process ended between listdir and open
        parent = int(line[line.rindex(")") + 2:].split()[1])
        children.setdefault(parent, []).append(int(entry))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed utime+stime over ``pids`` (a vanished pid counts 0)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                total += parse_proc_stat_cpu_seconds(handle.read(), ticks)
        except OSError:
            continue
    return total


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` over ``pids`` in MiB."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                total += parse_proc_status_kib(handle.read(), "VmHWM")
        except OSError:
            continue
    return total / 1024.0
