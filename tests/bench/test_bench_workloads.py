"""Seeded request plans: what the seed decides and what it must not."""

import json
import os

import pytest

from cedarbench import workloads
from cedarbench.workloads import WORKLOADS, plan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def documents(jobs):
    return sorted((job.dataset, job.document) for job in jobs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_plan_other_seed_other_plan(name):
    workload = WORKLOADS[name]
    assert plan(workload, 7, 20) == plan(workload, 7, 20)
    assert plan(workload, 7, 20) != plan(workload, 8, 20)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_document_set_does_not_depend_on_the_seed(name):
    workload = WORKLOADS[name]
    assert documents(plan(workload, 1, 20)) == documents(plan(workload, 2, 20))


def test_interleaved_prefixes_keep_the_profile_ratio():
    order = workloads.interleaved(workloads.PAPER_MIX_X3)
    assert len(order) == len(set(order)) == 294
    head = [dataset for dataset, _index in order[:70]]
    assert head.count("aggchecker") == 40
    assert head.count("tabfact") == 20
    assert head.count("wikitext") == 10


def test_distinct_workloads_visit_each_document_once():
    jobs = plan(WORKLOADS["cold-distinct"], 7, 24)
    assert len(jobs) == 250
    assert len(set(documents(jobs))) == 250
    # Asking for more time than there are documents caps at the profile.
    assert len(plan(WORKLOADS["cold-distinct"], 7, 60)) == 294


def test_hot_workloads_run_whole_round_robin_cycles():
    for seconds, expected in ((1, 25), (22, 275), (24, 300)):
        jobs = plan(WORKLOADS["hot-fit"], 7, seconds)
        assert len(jobs) == expected
        # Every cycle visits every document once, in its own order.
        cycles = [jobs[i:i + 25] for i in range(0, len(jobs), 25)]
        assert all(len(set(documents(cycle))) == 25 for cycle in cycles)
    first, second = cycles[0], cycles[1]
    assert [(j.dataset, j.document) for j in first] != [
        (j.dataset, j.document) for j in second]


def test_the_seed_draws_order_client_ids_and_priorities():
    workload = WORKLOADS["cold-distinct"]
    first, second = plan(workload, 1, 24), plan(workload, 2, 24)
    for field in ("document", "client_id", "priority"):
        assert [getattr(j, field) for j in first] != [
            getattr(j, field) for j in second], field
    assert {j.client_id for j in first} == set(workloads.CLIENT_IDS)
    assert 0.1 < sum(j.priority for j in first) / len(first) < 0.4


def test_open_loop_schedule_is_a_seeded_poisson_draw_of_fixed_counts():
    workload = WORKLOADS["open-llm"]
    first, second = plan(workload, 1, 24), plan(workload, 2, 24)
    assert plan(workload, 1, 24) == first
    # 25 s at each rate: the counts and the windows are the same under
    # every seed, the arrival times inside them are the seed's.
    for jobs in (first, second):
        assert [job.rate for job in jobs] == [2.0] * 50 + [3.0] * 75
        assert all(0.0 <= job.due < 25.0 for job in jobs[:50])
        assert all(25.0 <= job.due < 50.0 for job in jobs[50:])
        assert all(b.due > a.due for a, b in zip(jobs, jobs[1:]))
    assert [job.due for job in first] != [job.due for job in second]
    # Poisson, not evenly spaced: gaps far below and far above the mean.
    gaps = [b.due - a.due for a, b in zip(first[50:], first[51:])]
    assert min(gaps) < 0.1 / 3.0 and max(gaps) > 3.0 / 3.0


def test_conditioned_poisson_gaps_are_exponential_on_average():
    import random

    rng = random.Random("schedule-test")
    schedule = workloads.poisson_schedule(rng, (4.0,), [4000])
    dues = [due for due, _rate in schedule]
    gaps = [b - a for a, b in zip(dues, dues[1:])]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(0.25, rel=0.01)
    # Exponential: the share of gaps shorter than the mean is 1 - 1/e.
    assert sum(g < mean for g in gaps) / len(gaps) == pytest.approx(
        0.632, abs=0.03)


def test_traced_share_shrinks_the_job_count():
    assert len(plan(WORKLOADS["cluster2-hot"], 7, 24, share=1 / 3)) == 275
    assert len(plan(WORKLOADS["open-llm"], 7, 24, share=1 / 3)) == 42


def test_benchmark_json_names_every_workload_with_its_job_count():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["run_seconds"] == workloads.REFERENCE_SECONDS
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        if workload.loop == "closed":
            assert str(workload.jobs) in entry["why"]
        assert f"{workload.limit_ms:g} ms" in entry["why"]
    assert set(spec["paths"]) == {"bench", "tests/bench"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
