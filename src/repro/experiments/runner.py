"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments <experiment> [--fast]
    python -m repro.experiments all [--fast]

The experiment names are the keys of ``EXPERIMENTS``.

``--trace FILE`` installs a process-wide tracer for the run and writes
the resulting span forest as Chrome trace-event JSON (load it in
https://ui.perfetto.dev) — handy for seeing where an experiment's time
actually goes.
"""

from __future__ import annotations

import argparse
import sys

from . import (assumptions, costs, figure5, figure6, figure7, joinbench_exp,
               table2, table3)

EXPERIMENTS = {
    "assumptions": assumptions.main,
    "table2": table2.main,
    "costs": costs.main,
    "figure5": figure5.main,
    "figure6": figure6.main,
    "table3": table3.main,
    "joinbench": joinbench_exp.main,
    "figure7": figure7.main,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="run on reduced datasets (for smoke testing)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the run "
             "(load it in https://ui.perfetto.dev)",
    )
    arguments = parser.parse_args(argv)
    tracer = None
    previous = None
    if arguments.trace:
        from repro.obs import Tracer, set_default_tracer

        tracer = Tracer(trace_id=f"experiments-{arguments.experiment}")
        previous = set_default_tracer(tracer)
    try:
        if arguments.experiment == "all":
            for name in sorted(EXPERIMENTS):
                print(f"{'=' * 72}\n{name}\n{'=' * 72}")
                EXPERIMENTS[name](fast=arguments.fast)
                print()
        else:
            EXPERIMENTS[arguments.experiment](fast=arguments.fast)
    finally:
        if tracer is not None:
            from repro.obs import set_default_tracer, write_chrome_trace

            set_default_tracer(previous)
            write_chrome_trace(
                tracer, arguments.trace,
                process_name=f"experiments:{arguments.experiment}",
            )
            print(f"trace: {tracer.span_count()} spans -> "
                  f"{arguments.trace} (open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
