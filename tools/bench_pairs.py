#!/usr/bin/env python3
"""Interleaved parent/HEAD benchmark pairs: ``make bench-pairs``.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload cluster2-hot
    python3 tools/bench_pairs.py --parent 2591fed --seeds 7,11-18,29 \\
        --workload hot-fit --workload cluster2-hot

The protocol every gain/no-gain PR has run by hand (docs/performance.md,
guide rule: ten pairs, alternate which side goes first, win nine tenths
and beat the parent's own inter-quartile spread). The parent commit is
unpacked with ``git archive`` into a temporary directory — no worktree
metadata is left in ``.git`` — and each tree's *own* ``bench/run.py``
is called once per seed; nothing under ``bench/`` is touched. Per
end-to-end metric it prints both sides' median [q1, q3], the relative
change of the medians, the pairs HEAD won, and a verdict:

``gain`` / ``loss``   nine tenths of the pairs agree and the medians
                      differ by more than the parent's q3 - q1;
``unresolved``        the medians differ by more than that spread but
                      the pairs do not agree;
``level``             neither.

Exit status is non-zero only when a run failed (a job failed, an output
was wrong, the bench could not start); judging a loss is the reader's
job, against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"7,11-18,29"`` -> ``[7, 11, 12, ..., 18, 29]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def unpack_parent(revision: str, target: Path) -> None:
    """The committed files of ``revision`` under ``target``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", revision],
        cwd=REPO_ROOT, stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", str(target)],
                   stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {revision} failed")


def run_once(tree: Path, workload: str, seed: int,
             seconds: float | None) -> dict[str, float] | None:
    """One ``bench/run.py --workload`` in ``tree``; its metric values,
    or None when the run failed (stderr is passed through)."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", f"{seconds:g}"]
    completed = subprocess.run(command, cwd=tree, text=True,
                               stdout=subprocess.PIPE)
    if completed.returncode != 0:
        return None
    contract = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: entry["value"]
            for name, entry in contract["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], head: list[float], better: str) -> str:
    """One summary row for a metric (see the module docstring)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, h in zip(parent, head) if sign * (h - p) > 0)
    losses = sum(1 for p, h in zip(parent, head) if sign * (h - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    h_q1, h_median, h_q3 = quartiles(head)
    pairs = len(parent)
    beyond_spread = abs(h_median - p_median) > (p_q3 - p_q1)
    if not beyond_spread:
        word = "level"
    elif wins >= 0.9 * pairs and sign * (h_median - p_median) > 0:
        word = "gain"
    elif losses >= 0.9 * pairs and sign * (h_median - p_median) < 0:
        word = "loss"
    else:
        word = "unresolved"
    change = (100.0 * (h_median - p_median) / p_median
              if p_median else 0.0)
    parent_side = f"{p_median:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
    head_side = f"{h_median:.4g} [{h_q1:.4g}, {h_q3:.4g}]"
    return (f"{parent_side:>34}{head_side:>34}"
            f"{change:+8.1f} %  {wins:>2}/{pairs} won  {word}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 tools/bench_pairs.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="commit to compare this working tree with")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=parse_seeds,
                        default=parse_seeds("7,11-18,29"),
                        help="one pair per seed (default 7,11-18,29)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed to bench/run.py (default: its own)")
    arguments = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="cedar-bench-pairs-"))
    failed = 0
    try:
        unpack_parent(arguments.parent, scratch)
        sides = {"parent": scratch, "head": REPO_ROOT}
        for workload in arguments.workload or names:
            runs: dict[str, list[dict[str, float]]] = {
                "parent": [], "head": [],
            }
            for index, seed in enumerate(arguments.seeds):
                order = ("parent", "head") if index % 2 == 0 \
                    else ("head", "parent")
                pair = {side: run_once(sides[side], workload, seed,
                                       arguments.seconds)
                        for side in order}
                if None in pair.values():
                    failed += 1
                    print(f"{workload} seed {seed}: a run failed; "
                          "pair dropped", file=sys.stderr)
                    continue
                for side, metrics in pair.items():
                    runs[side].append(metrics)
                print(f"{workload} seed {seed} ({order[0]} first): "
                      f"job_latency_p50_ms "
                      f"{pair['parent']['job_latency_p50_ms']:.3f} -> "
                      f"{pair['head']['job_latency_p50_ms']:.3f}",
                      flush=True)
            if not runs["head"]:
                continue
            print(f"\n== {workload}: parent {arguments.parent} vs working "
                  f"tree, {len(runs['head'])} pairs ==")
            print(f"{'metric':<26}{'parent median [q1, q3]':>34}"
                  f"{'head median [q1, q3]':>34}")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                print(f"{name:<26}" + verdict(
                    [run[name] for run in runs["parent"]],
                    [run[name] for run in runs["head"]],
                    metric["better"],
                ))
            print()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
