"""Printing and writing results: tables, result files, the ranked table."""

from __future__ import annotations

import json
import os
import statistics
from typing import Sequence

from . import REPO_ROOT, measure
from .harness import Result

SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _format(value: float) -> str:
    magnitude = abs(value)
    if magnitude and magnitude < 0.01:
        return f"{value:.6f}"
    return f"{value:.4f}" if magnitude < 100 else f"{value:.2f}"


def print_result(result: Result, spec: dict) -> None:
    """Every metric of one run, by name, with its unit."""
    kind = "traced" if result.traced else "e2e"
    print(f"\n== {result.workload} [{kind}] seed {result.seed}: "
          f"{result.attempted} jobs attempted, {result.failed} failed ==")
    env = result.environment
    print(f"   nproc {env.get('nproc')}  python {env.get('python')}  "
          f"commit {env.get('commit')}  load {env.get('load_1min')}"
          + ("  NOISY (load > nproc/2)" if env.get("noisy") else ""))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("   end to end (a tail the sample cannot support is absent):")
    for name, (value, unit) in result.end_to_end.items():
        note = f"   [bound {bounds[name]:.0%}]" if name in bounds else ""
        print(f"     {name:<34}{_format(value):>14} {unit}{note}")
    if not result.valid:
        print("   INVALID: the generator ran late (gen_late_p95_ms > 5 ms)")
    if result.traced:
        print("   per layer (absent = the layer's code did not run):")
        for name, (value, unit) in sorted(result.per_layer.items()):
            print(f"     {name:<42}{_format(value):>14} {unit}")
        print_where(result)
    for problem in result.problems[:10]:
        print(f"   FAILED {problem}")
    print(f"   generator peak: {result.peak.get('threads')} threads, "
          f"{result.peak.get('connections')} connections")


def print_where(result: Result) -> None:
    if not result.where:
        return
    print(f"   where the time goes ({result.workload}, sampled jobs):")
    for line in where_lines(result.where):
        print("     " + line)


def where_lines(rows: Sequence[dict]) -> list[str]:
    lines = [f"{'layer':<26}{'self ms/job':>14}{'share of latency':>20}"]
    lines += [
        f"{row['layer']:<26}{row['self_ms_per_job']:>14.3f}"
        f"{row['share_of_latency']:>19.1%}"
        for row in rows
    ]
    return lines


def write_where_markdown(results: Sequence[Result], path: str) -> None:
    """``where-time-goes.md``: one ranked table per traced workload."""
    lines = [
        "# Where the time goes",
        "",
        "Self time per layer over the sampled jobs of the traced set "
        "(span duration minus what its children cover), ranked. Shares "
        "are of the mean sampled job latency; parallel claim spans "
        "overlap, so shares can sum past 100 %.",
        "",
    ]
    for result in results:
        if not result.where:
            continue
        lines += [f"## {result.workload} (seed {result.seed})", "",
                  "| layer | self ms/job | share of job latency |",
                  "|---|---:|---:|"]
        lines += [
            f"| `{row['layer']}` | {row['self_ms_per_job']:.3f} | "
            f"{row['share_of_latency']:.1%} |"
            for row in result.where
        ]
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def contract_line(result: Result, spec: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    if result.traced:
        # Every declared layer metric is present; a layer whose code did
        # not run on this workload (the router on a single process)
        # reads 0.
        measured = {**result.end_to_end, **result.per_layer}
        metrics = {m["name"]: measured.get(m["name"], (0.0, m["unit"]))
                   for m in spec["per_layer"]}
    else:
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] not in result.end_to_end]
        if missing:
            raise measure.TooFewSamples(
                f"{result.workload} ran too few jobs to report "
                f"{', '.join(missing)}; raise --seconds")
        metrics = {m["name"]: result.end_to_end[m["name"]]
                   for m in spec["end_to_end"]}
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def sets_summary(results: Sequence[Result], spec: dict) -> tuple[list[str], bool]:
    """Median, quartiles and spread per metric and workload over the
    e2e sets, next to the bound. False when a spread exceeds its bound
    (``setup_s`` is reported but exempt, as in the driver's check)."""
    lines = [f"{'workload':<15}{'metric':<26}{'median':>12}{'q1':>12}"
             f"{'q3':>12}{'spread':>9}{'bound':>8}"]
    within = True
    workloads = list(dict.fromkeys(r.workload for r in results))
    for workload in workloads:
        runs = [r for r in results if r.workload == workload]
        for metric in spec["end_to_end"]:
            values = [r.end_to_end[metric["name"]][0] for r in runs
                      if metric["name"] in r.end_to_end]
            if len(values) < 2:
                continue
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = measure.spread(values)
            over = spread > metric["bound"] and metric["name"] != "setup_s"
            within = within and not over
            lines.append(
                f"{workload:<15}{metric['name']:<26}"
                f"{_format(statistics.median(values)):>12}"
                f"{_format(q1):>12}{_format(q3):>12}"
                f"{spread:>9.3f}{metric['bound']:>8.2f}"
                + ("  OVER" if over else ""))
    return lines, within
