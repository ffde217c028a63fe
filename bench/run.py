#!/usr/bin/env python3
"""CEDAR's front-door benchmark: claim in, verdict out.

    python3 bench/run.py                      # e2e set, then traced set
    python3 bench/run.py --seed 11 --sets 2   # two e2e sets, spreads
    python3 bench/run.py --workload hot-fit --seed 3 --seconds 24 --trace 0
    python3 bench/run.py --regen-golden

Spawns the system under test as child processes, drives it over HTTP
from this one process, checks every output against the checked-in
reference, prints every metric by name with its unit and writes results
under ``bench/out/``. See ``bench/README.md`` for what each number
means and ``BENCHMARK.json`` for the names, units and bounds.

With ``--workload`` it runs that one workload once — end to end with
``--trace 0``, the shorter traced set with ``--trace 1`` — and ends its
output with one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) on the last line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cedarbench import OUT_DIR, golden, harness, report  # noqa: E402
from cedarbench.measure import TooFewSamples  # noqa: E402
from cedarbench.servers import ServerError  # noqa: E402
from cedarbench.workloads import WORKLOADS  # noqa: E402

EXIT_FAILED = 1       # a job failed, an output was wrong, a spread was over
EXIT_UNUSABLE = 2     # nothing to benchmark, or the bench could not run


def build_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="scales every workload's fixed job count "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload once and end with the "
                             "result as one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced set")
    parser.add_argument("--sets", type=int, default=1,
                        help="e2e sets to run back to back, workloads "
                             "interleaved; >1 prints spreads against bounds")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rebuild bench/golden/ref-seed7.json and exit")
    return parser


def run_one(arguments: argparse.Namespace, spec: dict) -> int:
    """``--workload``: one run, one JSON line."""
    workload = WORKLOADS[arguments.workload]
    traced = bool(arguments.trace)
    result = harness.run_workload(workload, arguments.seed,
                                  arguments.seconds, traced)
    kind = "traced" if traced else "e2e"
    report.write_json(result.to_dict(), os.path.join(
        OUT_DIR, f"run-{workload.name}-{kind}-seed{arguments.seed}.json"))
    if result.log is not None:
        result.log.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
    report.print_result(result, spec)
    if not result.end_to_end:
        print("no job succeeded; nothing to report", file=sys.stderr)
        return EXIT_FAILED
    print(report.contract_line(result, spec))
    return 0 if result.correct and result.valid else EXIT_FAILED


def run_suite(arguments: argparse.Namespace, spec: dict) -> int:
    """Every workload: ``--sets`` e2e sets, then one traced set."""
    e2e: list[harness.Result] = []
    for _ in range(arguments.sets):
        for workload in WORKLOADS.values():
            result = harness.run_workload(
                workload, arguments.seed, arguments.seconds, traced=False)
            report.print_result(result, spec)
            e2e.append(result)
    traced: list[harness.Result] = []
    for workload in WORKLOADS.values():
        result = harness.run_workload(
            workload, arguments.seed, arguments.seconds, traced=True)
        result.log.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
        report.print_result(result, spec)
        traced.append(result)
        untraced = next(r for r in e2e if r.workload == workload.name)
        if result.end_to_end and untraced.end_to_end:
            print(f"   bench tracing overhead: job_latency_p50_ms "
                  f"{result.end_to_end['job_latency_p50_ms'][0]:.3f} in the "
                  f"traced set (a third of the jobs) vs "
                  f"{untraced.end_to_end['job_latency_p50_ms'][0]:.3f} "
                  f"in the e2e set")
    report.write_where_markdown(
        traced, os.path.join(OUT_DIR, "where-time-goes.md"))
    within = True
    summary: list[str] = []
    if arguments.sets > 1:
        summary, within = report.sets_summary(e2e, spec)
        print(f"\n== spread over {arguments.sets} e2e sets "
              "(interquartile distance / median) ==")
        print("\n".join(summary))
    report.write_json({
        "seed": arguments.seed, "seconds": arguments.seconds,
        "sets": arguments.sets,
        "end_to_end": [r.to_dict() for r in e2e],
        "traced": [r.to_dict() for r in traced],
        "spread_summary": summary,
    }, os.path.join(OUT_DIR, f"results-seed{arguments.seed}.json"))
    every = e2e + traced
    failed = sum(r.failed for r in every)
    invalid = [r.workload for r in every if not r.valid]
    print(f"\n{sum(r.attempted for r in every)} jobs attempted, {failed} "
          f"failed; results under {os.path.relpath(OUT_DIR)}/")
    if invalid:
        print(f"INVALID (generator ran late): {', '.join(invalid)}")
    if not within:
        print("a spread exceeds its bound")
    return 0 if not failed and within and not invalid else EXIT_FAILED


def main(argv: list[str] | None = None) -> int:
    try:
        spec = report.load_spec()
    except OSError as error:
        print(f"cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    arguments = build_parser(spec).parse_args(argv)

    def terminate(signum, _frame) -> None:
        # Unwind through the finally blocks that stop the servers.
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        if arguments.regen_golden:
            payload = golden.regenerate()
            print(f"wrote {os.path.relpath(golden.GOLDEN_PATH)}: " + ", ".join(
                f"{name} {len(documents)} documents"
                for name, documents in payload["profiles"].items()))
            return 0
        if arguments.workload:
            return run_one(arguments, spec)
        return run_suite(arguments, spec)
    except (ServerError, TooFewSamples) as error:
        print(f"bench cannot run: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    except KeyboardInterrupt:
        print("interrupted; servers stopped", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
