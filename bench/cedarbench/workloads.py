"""The four workloads and the seeded request plans they generate.

Job counts are fixed per workload — never a duration — because per-job
cost depends on how many jobs the process has already served; both
sides of a comparison must do identical work. ``--seconds`` only scales
the counts (``jobs_for``), so one value of it always means one count.

``--seed`` draws everything the issue lists: the request order, the
client ids, the priorities and, on the open loop, the Poisson schedule.
Two things are kept out of its reach so that a price means the same
under every seed: the *set* of documents a run touches is a
seed-independent prefix of the interleaved profile, and hot workloads
run whole round-robin cycles — so ``cents_per_claim`` and
``verdict_f1`` do not depend on the seed, only on the code.

Different seeds are different inputs and give different numbers; that
is input variance, not the system's. Compare two versions of the code
under the same seeds. What the plans do to keep that variance small
enough for the bounds in ``BENCHMARK.json`` is said where it is done:
a fresh shuffle per round-robin cycle, and arrival times conditioned on
the phase's job count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: ``--seconds`` value the job counts below are for: ``run_seconds`` of
#: BENCHMARK.json. The closed loops' timed regions then last about 17 s
#: on the seed code and the open loop's 50 s (see bench/README.md).
REFERENCE_SECONDS = 24

#: Documents behind ``python -m repro.service`` / ``--profile default``.
DEFAULT_PROFILE = (("aggchecker", 12), ("tabfact", 8), ("wikitext", 5))

#: Documents behind ``bench/serve.py``: the paper's mix (56/28/14
#: documents) times three — 294 documents, 1,626 claims.
PAPER_MIX_X3 = (("aggchecker", 168), ("tabfact", 84), ("wikitext", 42))

Document = tuple[str, int]            # (dataset name, document index)


def interleaved(profile: tuple[tuple[str, int], ...]) -> list[Document]:
    """Every document of ``profile``, datasets interleaved in proportion.

    Any prefix holds the datasets in (nearly) the profile's ratio, so a
    workload that visits only the first N documents still sees the mix.
    The order depends on the profile alone — never on the seed — which
    keeps the *set* of documents a run touches, and so its price,
    identical across seeds.
    """
    total = sum(count for _name, count in profile)
    taken = {name: 0 for name, _count in profile}
    order: list[Document] = []
    for position in range(1, total + 1):
        # The dataset furthest behind its proportional share goes next.
        name, _count = max(
            ((name, count) for name, count in profile
             if taken[name] < count),
            key=lambda item: position * item[1] / total - taken[item[0]],
        )
        order.append((name, taken[name]))
        taken[name] += 1
    return order


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one way of starting the server."""

    name: str
    #: "service" = ``python -m repro.service``; "cluster" = ``python -m
    #: repro.cluster``; "launcher" = ``bench/serve.py``.
    server: str
    server_args: tuple[str, ...]
    profile: tuple[tuple[str, int], ...]
    loop: str                         # "closed" | "open"
    jobs: int                         # at REFERENCE_SECONDS
    limit_ms: float                   # SLO for slo_goodput_share
    #: Repeat traffic: an untimed warm pass first, then round-robin.
    #: Otherwise every document is visited exactly once.
    hot: bool = False
    clients: int = 2                  # closed loop only
    #: Open loop only: fixed arrival rates (jobs/s), each given an equal
    #: share of the timed region. Fixed here, never adapted at run time.
    rates: tuple[float, ...] = ()

    @property
    def documents(self) -> int:
        return sum(count for _name, count in self.profile)

    def jobs_for(self, seconds: float) -> int:
        jobs = self.jobs * seconds / REFERENCE_SECONDS
        if self.hot:
            # Whole round-robin cycles: every document is visited the
            # same number of times whatever the seed's order.
            return max(1, round(jobs / self.documents)) * self.documents
        return max(1, min(round(jobs), self.documents))


#: Why each workload exists is recorded next to its name in
#: BENCHMARK.json (and at length in bench/README.md).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hot-fit",
        server="service", server_args=(),
        profile=DEFAULT_PROFILE, loop="closed", jobs=300,
        limit_ms=250.0, hot=True,
    ),
    Workload(
        name="cold-distinct",
        server="launcher", server_args=(),
        profile=PAPER_MIX_X3, loop="closed", jobs=250,
        limit_ms=400.0,
    ),
    Workload(
        name="cluster2-hot",
        server="cluster",
        server_args=("--workers", "2", "--profile", "default"),
        profile=DEFAULT_PROFILE, loop="closed", jobs=800,
        limit_ms=100.0, hot=True,
    ),
    Workload(
        name="open-llm",
        server="launcher", server_args=("--latency-scale", "0.01"),
        profile=PAPER_MIX_X3, loop="open", jobs=125,
        limit_ms=1000.0, rates=(2.0, 3.0),
    ),
)}


@dataclass(frozen=True)
class PlannedJob:
    """One request, fully determined before the run starts."""

    index: int
    dataset: str
    document: int
    client_id: str
    priority: int
    #: Seconds after the timed region opens (open loop); None = closed.
    due: float | None = None
    rate: float | None = None

    @property
    def payload(self) -> dict:
        return {"dataset": self.dataset, "document": self.document,
                "client_id": self.client_id, "priority": self.priority}


#: Few enough ids that the per-client cap (8 in flight) is exercised,
#: enough that it never binds below the queue-depth limit.
CLIENT_IDS = ("alpha", "bravo", "charlie", "delta")


def _attributes(rng: random.Random) -> tuple[str, int]:
    """A job's client id and priority (one in four is low priority)."""
    return rng.choice(CLIENT_IDS), 1 if rng.random() < 0.25 else 0


def phase_counts(rates: tuple[float, ...], jobs: int) -> list[int]:
    """Jobs per rate phase: equal wall time each, so jobs in proportion
    to the rate."""
    counts = [round(jobs * rate / sum(rates)) for rate in rates[:-1]]
    return [*counts, jobs - sum(counts)]


def poisson_schedule(rng: random.Random, rates: tuple[float, ...],
                     counts: list[int]) -> list[tuple[float, float]]:
    """``(due, rate)`` per arrival: one Poisson phase per rate, each
    conditioned on its job count.

    Given that ``count`` arrivals of a Poisson process fall in a window,
    their times are ``count`` independent uniform draws over it, sorted.
    The window is ``count / rate`` long, so the job count *and* the rate
    hold exactly and the region is equally long under every seed; gaps
    drawn one by one would make a 50-job phase 14 % longer or shorter
    (one standard deviation) and move throughput by as much.
    """
    schedule: list[tuple[float, float]] = []
    opens = 0.0
    for rate, count in zip(rates, counts):
        window = count / rate
        schedule += [(due, rate) for due in sorted(
            opens + rng.uniform(0.0, window) for _ in range(count))]
        opens += window
    return schedule


def plan(workload: Workload, seed: int, seconds: float,
         share: float = 1.0) -> list[PlannedJob]:
    """The timed region's requests, every draw from ``seed``.

    ``share`` shrinks the job count the way fewer ``--seconds`` would
    (the traced set runs a third).
    """
    jobs = workload.jobs_for(seconds * share)
    rng = random.Random(f"{workload.name}:{seed}")
    documents = interleaved(workload.profile)
    if workload.hot:
        # Round-robin in a fresh order each cycle: which documents run
        # side by side decides what they wait for (one dispatcher per
        # process, two shards of unequal size), and one order repeated
        # for the whole run would make the run a sample of one pairing.
        visits: list[Document] = []
        for _cycle in range(jobs // len(documents)):  # jobs_for: whole
            rng.shuffle(documents)
            visits += documents
    else:
        visits = documents[:jobs]
        rng.shuffle(visits)
    slots = [(document, *_attributes(rng)) for document in visits]
    if workload.loop == "closed":
        arrivals: list[tuple[float | None, float | None]] = [
            (None, None)] * len(slots)
    else:
        arrivals = poisson_schedule(
            rng, workload.rates, phase_counts(workload.rates, len(slots)))
    return [
        PlannedJob(index, dataset, number, client_id, priority, due, rate)
        for index, (((dataset, number), client_id, priority), (due, rate))
        in enumerate(zip(slots, arrivals))
    ]


def warm_plan(workload: Workload) -> list[PlannedJob]:
    """The untimed warm pass: every document of the profile once."""
    return [
        PlannedJob(index, dataset, document, "warm", 0)
        for index, (dataset, document)
        in enumerate(interleaved(workload.profile))
    ]
