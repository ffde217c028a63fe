"""One workload, start to finish: set up, timed region, layers, teardown.

``run_workload`` is the only place that decides what is inside the
timed region: the generator's loop and nothing else. Stats snapshots and
``/proc`` reads sit just outside it; trace fetches and probes run after
it, and only on the traced set.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

from . import REPO_ROOT, analysis, layers, measure, spans
from .client import NPROC, Budget, Connection, JobRecord, closed_loop, open_loop
from .golden import Reference
from .servers import Server, server_argv
from .workloads import Workload, plan, warm_plan

#: The traced set runs this share of each workload's jobs (a third, not
#: the quarter first planned: a third of open-llm's 125 jobs still
#: leaves the 40 samples a p75 needs) ...
TRACE_SHARE = 1 / 3
#: ... and fetches the server's trace for every this-many-th job.
TRACE_EVERY = 10
#: An open-loop run whose generator ran later than this is invalid.
MAX_LATENESS_MS = 5.0

Metrics = dict[str, tuple[float, str]]


@dataclass
class Result:
    """What one run of one workload produced."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: Metrics = field(default_factory=dict)
    per_layer: Metrics = field(default_factory=dict)
    where: list[dict] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    peak: dict = field(default_factory=dict)
    #: The bench's own spans (traced set only), not yet written out.
    log: spans.SpanLog | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def valid(self) -> bool:
        """False when the generator itself distorted the run."""
        late = self.end_to_end.get("gen_late_p95_ms", (0.0, "ms"))[0]
        return late <= MAX_LATENESS_MS

    def to_dict(self) -> dict:
        def plain(metrics: Metrics) -> dict:
            return {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "traced": self.traced,
            "attempted": self.attempted, "failed": self.failed,
            "correct": self.correct, "valid": self.valid,
            "problems": self.problems,
            "end_to_end": plain(self.end_to_end),
            "per_layer": plain(self.per_layer),
            "where_time_goes": self.where,
            "generator_peak": self.peak,
            "environment": self.environment,
        }


def environment() -> dict:
    """Where and on what this ran; goes into every result file."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    load = os.getloadavg()[0]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "load_1min": round(load, 2),
        "noisy": load > NPROC / 2,
    }


def _timed_region(workload: Workload, server: Server, jobs, budget: Budget
                  ) -> tuple[list[JobRecord], float, float]:
    """The generator's loop and nothing else, with the CPU seconds the
    server's processes and this process spent across it."""
    pids = server.pids()
    cpu_before, own_before = measure.cpu_seconds(pids), time.process_time()
    if workload.loop == "open":
        records = open_loop(server.port, jobs, budget)
    else:
        records = closed_loop(server.port, jobs, workload.clients, budget)
    own_cpu = time.process_time() - own_before
    return records, measure.cpu_seconds(pids) - cpu_before, own_cpu


def _set_up(workload: Workload, budget: Budget, reference: Reference,
            label: str, extra_args: tuple[str, ...] = ()
            ) -> tuple[Server, float, list[str]]:
    """Spawn -> ``/v1/readyz`` 200 -> datasets warm. Returns the server,
    the seconds that took, and what the warm pass got wrong.

    ``bench/serve.py`` builds its datasets before it announces a port;
    the CLIs build lazily, so they get an untimed warm pass that submits
    every document once — its jobs are first submissions and must match
    the reference digests.
    """
    server = Server(server_argv(workload, extra_args), label)
    started = time.monotonic()
    try:
        server.start()
        problems: list[str] = []
        if workload.hot:
            warm = closed_loop(server.port, warm_plan(workload),
                               workload.clients, budget)
            problems = [
                f"warm pass job {index}: {why}" for index, why in
                analysis.check_outputs(warm, reference, True).items()
            ]
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started, problems


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool) -> Result:
    """Run ``workload`` once and return everything measured."""
    result = Result(workload.name, seed, seconds, traced,
                    environment=environment(),
                    log=spans.SpanLog() if traced else None)
    reference = Reference.load(workload.profile)
    budget = Budget()
    jobs = plan(workload, seed, seconds, TRACE_SHARE if traced else 1.0)
    label = f"{workload.name}-{'traced' if traced else 'e2e'}"
    server, setup_seconds, warm_problems = _set_up(
        workload, budget, reference, label)
    try:
        with Connection(server.port, budget) as control:
            _status, before = control.get_json("/v1/stats")
        records, server_cpu, own_cpu = _timed_region(
            workload, server, jobs, budget)
        with Connection(server.port, budget) as control:
            _status, after = control.get_json("/v1/stats")
            problems = analysis.check_outputs(
                records, reference, first_submission=not workload.hot)
            good = [r for r in records if r.plan.index not in problems]
            result.attempted = len(records)
            result.failed = len(problems) + len(warm_problems)
            result.problems = warm_problems + [
                f"job {index}: {why}" for index, why in problems.items()]
            if good:
                result.end_to_end = analysis.end_to_end(
                    workload, records, problems, reference)
                result.end_to_end.update({
                    "server_cpu_ms_per_job": (
                        1e3 * server_cpu / len(good), "ms"),
                    "generator_cpu_ms_per_job": (
                        1e3 * own_cpu / len(good), "ms"),
                    # The CPU figure BENCHMARK.json bounds. Machine
                    # speed on this shared host drifts by tens of
                    # percent for minutes on end (frequency, a busy SMT
                    # sibling, stolen time) and moves both raw figures
                    # alike: over one ten-seed set the raw ms per job
                    # spread 11-40 % while this ratio spread 4-6 %. The
                    # generator's side also grows with the events the
                    # server emits per job, so a change to that volume
                    # is judged on the raw figures, printed beside it.
                    "server_cpu_per_gen_cpu": (
                        server_cpu / own_cpu if own_cpu else 0.0, "ratio"),
                    "server_peak_rss_mb": (
                        measure.peak_rss_mib(server.pids()), "MiB"),
                    "setup_s": (setup_seconds, "s"),
                })
                result.per_layer = analysis.event_layers(records, problems)
                result.per_layer.update(
                    layers.stats_layers(before, after, records))
            if traced and good:
                roots = [root for record in good[::TRACE_EVERY] if (
                    root := layers.trace_job(control, record, result.log))]
                result.per_layer.update(layers.trace_layers(roots))
                mean_latency = sum(r.duration for r in roots) / max(
                    1, len(roots))
                result.where = spans.where_time_goes(roots, mean_latency)
        if not server.alive():
            result.failed += 1
            result.problems.append("server exited during the run:\n"
                                   + server.log_tail())
    finally:
        server.stop()
    if traced and result.end_to_end:
        from . import probes  # imports the system under test
        result.per_layer.update(
            probes.run_probes(workload.profile, records, result.log))
        if workload.server == "cluster":
            result.per_layer.update(_tracing_overhead(
                workload, jobs, budget, reference,
                result.end_to_end["server_cpu_per_gen_cpu"][0]))
    result.peak = dict(budget.peak)
    return result


def _tracing_overhead(workload: Workload, jobs, budget: Budget,
                      reference: Reference, traced_ratio: float) -> Metrics:
    """The same jobs against a ``--no-tracing`` cluster: what the
    server's own tracing costs in CPU. Both arms are taken as server CPU
    per generator CPU — the generator does identical work in both, and
    raw CPU ms of two runs a minute apart differ by more than tracing
    costs when the host changes speed in between."""
    server, _took, _problems = _set_up(
        workload, budget, reference, f"{workload.name}-no-tracing",
        extra_args=("--no-tracing",))
    try:
        records, server_cpu, own_cpu = _timed_region(
            workload, server, jobs, budget)
    finally:
        server.stop()
    done = sum(1 for record in records if record.done)
    untraced_cpu_ms = 1e3 * server_cpu / max(1, done)
    untraced_ratio = server_cpu / own_cpu if own_cpu else 0.0
    overhead = traced_ratio / untraced_ratio - 1.0 if untraced_ratio else 0.0
    return {
        "obs.tracing_overhead_pct": (100.0 * overhead, "%"),
        "obs.tracing_cpu_ms_per_job": (overhead * untraced_cpu_ms, "ms"),
    }
