"""``tools/bench_pairs.py``: seed parsing, the verdict rule and the
re-run of an INVALID side, against a stub bench (real runs are the
benchmark's business, not tier-1's)."""

from tools.bench_pairs import (
    dropped_line, metric_values, parse_seeds, quartiles, run_side, verdict,
)


def test_seed_ranges_expand_in_order():
    assert parse_seeds("7,11-18,29") == [7, 11, 12, 13, 14, 15, 16, 17,
                                         18, 29]
    assert parse_seeds("3") == [3]


def test_quartiles_are_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_verdict_needs_nine_tenths_of_pairs_and_the_parents_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    faster = [value - 2.0 for value in parent]
    assert verdict(parent, faster, "lower").endswith("10/10 won  gain")
    assert verdict(parent, faster, "higher").endswith(" 0/10 won  loss")
    # Inside the parent's own inter-quartile distance: level, however
    # many pairs agree.
    barely = [value - 0.01 for value in parent]
    assert verdict(parent, barely, "lower").endswith("10/10 won  level")
    # A median beyond the spread that the pairs do not back up.
    mixed = [value - 2.0 for value in parent[:6]] + \
            [value + 2.0 for value in parent[6:]]
    assert verdict(parent, mixed, "lower").endswith(" 6/10 won  unresolved")


_STUB_BENCH = '''
import json, sys
from pathlib import Path

argv = sys.argv[1:]
workload = argv[argv.index("--workload") + 1]
seed = argv[argv.index("--seed") + 1]
runs = Path("runs.txt")
count = int(runs.read_text()) + 1 if runs.exists() else 1
runs.write_text(str(count))
late = 9.0 if count == 1 else 1.5
out = Path("bench/out")
out.mkdir(parents=True, exist_ok=True)
(out / f"run-{workload}-e2e-seed{seed}.json").write_text(json.dumps({
    "correct": True, "failed": 0, "valid": late <= 5.0,
    "end_to_end": {
        "gen_late_p95_ms": {"value": late, "unit": "ms"},
        "job_latency_p50_ms": {"value": 80.0 + count, "unit": "ms"},
    },
    "environment": {"load_1min": 1.84, "noisy": True},
}))
sys.exit(0 if late <= 5.0 else 1)
'''


def test_an_invalid_run_is_rerun_with_the_same_seed(tmp_path, capsys):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(_STUB_BENCH)
    stale = tmp_path / "src" / "repro" / "__pycache__"
    stale.mkdir(parents=True)
    record = run_side(tmp_path, "open-llm", 7, None)
    assert not stale.exists()
    assert (tmp_path / "runs.txt").read_text() == "2"
    assert record["valid"]
    assert metric_values(record) == {"gen_late_p95_ms": 1.5,
                                     "job_latency_p50_ms": 82.0}
    # The INVALID line says how loaded the host was.
    assert ("(generator 9.00 ms late, load_1min 1.84, noisy True), "
            "attempt 1 of 3") in capsys.readouterr().err


def _record(valid, late, load, noisy):
    return {
        "valid": valid,
        "end_to_end": {"gen_late_p95_ms": {"value": late, "unit": "ms"}},
        "environment": {"load_1min": load, "noisy": noisy},
    }


def test_a_dropped_pair_names_each_invalid_side_and_its_host_load():
    line = dropped_line("open-llm", 9, {
        "head": _record(False, 7.25, 1.84, True),
        "parent": _record(True, 0.2, 0.1, False),
    })
    assert line == ("open-llm seed 9: still INVALID after 3 attempts "
                    "(head: generator 7.25 ms late, load_1min 1.84, "
                    "noisy True); pair dropped")
