"""The demonstration front-end (the SIGMOD demo paper's artifact).

The demo walks the audience through CEDAR's pipeline on a chosen
document: the tunable accuracy threshold, the profiling-derived schedule,
per-claim verdicts with the SQL evidence, an agent trace for a claim that
needed escalation, and the money spent — the same storyline as the
on-site demonstration, rendered for a terminal.

Usage::

    python -m repro.demo --list
    python -m repro.demo --document 3 --threshold 0.9
    python -m repro.demo --dataset tabfact --document 0 --verbose
    python -m repro.demo serve --port 8000    # HTTP service front end
"""

from __future__ import annotations

import argparse
import sys

from repro.core import describe_schedule, optimal_schedule
from repro.datasets import (
    DatasetBundle,
    build_aggchecker,
    build_tabfact,
    build_wikitext,
)
from repro.experiments import build_cedar, profile_system, reset_claims
from repro.metrics import score_claims

_DATASETS = {
    "aggchecker": lambda: build_aggchecker(document_count=12,
                                           total_claims=72),
    "tabfact": lambda: build_tabfact(table_count=8, total_claims=28),
    "wikitext": lambda: build_wikitext(document_count=5, total_claims=18),
}

_RULE = "=" * 72


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.demo",
        description="Interactive-style CEDAR demonstration.",
    )
    parser.add_argument("--dataset", choices=sorted(_DATASETS),
                        default="aggchecker")
    parser.add_argument("--document", type=int, default=0,
                        help="index of the document to verify")
    parser.add_argument("--threshold", type=float, default=0.99,
                        help="accuracy threshold (the cost-quality dial)")
    parser.add_argument("--list", action="store_true",
                        help="list the dataset's documents and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also print an agent trace when one exists")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(load it in https://ui.perfetto.dev)")
    parser.add_argument("--trace-summary", action="store_true",
                        help="print a per-span self-time table (where the "
                             "run's wall-clock actually went)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The service front end owns its own flags (--port, --queue-depth,
        # …); hand the rest of the command line straight to it.
        from repro.service.__main__ import main as serve_main
        return serve_main(argv[1:])
    arguments = build_parser().parse_args(argv)
    if not 0.0 < arguments.threshold <= 1.0:
        print("threshold must be in (0, 1]", file=sys.stderr)
        return 2
    bundle = _DATASETS[arguments.dataset]()
    if arguments.list:
        _list_documents(bundle)
        return 0
    if not 0 <= arguments.document < len(bundle.documents):
        print(
            f"document index out of range (0..{len(bundle.documents) - 1})",
            file=sys.stderr,
        )
        return 2
    _run_demo(bundle, arguments)
    return 0


def _list_documents(bundle: DatasetBundle) -> None:
    print(f"{bundle.name}: {len(bundle.documents)} documents")
    for index, document in enumerate(bundle.documents):
        incorrect = sum(
            1 for c in document.claims
            if not c.metadata.get("label_correct", True)
        )
        print(f"  [{index:2}] {document.title:45} "
              f"{len(document.claims)} claims ({incorrect} seeded errors)")


def _run_demo(bundle: DatasetBundle, arguments) -> None:
    from repro.obs import (
        NULL_TRACER,
        Tracer,
        self_time_table,
        write_chrome_trace,
    )

    tracer = (
        Tracer(trace_id=f"demo-{bundle.name}")
        if arguments.trace or arguments.trace_summary else NULL_TRACER
    )
    target = bundle.documents[arguments.document]
    profiling_docs = [
        d for i, d in enumerate(bundle.documents)
        if i != arguments.document
    ][:3]

    print(_RULE)
    print("CEDAR — cost-efficient data-driven claim verification")
    print(_RULE)
    print(f"dataset:   {bundle.name}")
    print(f"document:  {target.title}")
    print(f"threshold: {arguments.threshold:.0%} "
          "(lower = cheaper, less thorough)")

    system = build_cedar(bundle, seed=arguments.seed)
    print(f"\n[1/3] profiling {len(profiling_docs)} labeled documents …")
    profiles = profile_system(system, profiling_docs)
    for name, profile in profiles.items():
        print(f"      {name:28} accuracy={profile.accuracy:4.2f} "
              f"${profile.cost:.5f}/claim")

    planned = optimal_schedule(profiles, arguments.threshold)
    print(f"\n[2/3] cost-optimal schedule: {describe_schedule(planned)}")

    reset_claims([target])
    checkpoint = system.ledger.checkpoint()
    run = system.verifier.verify_documents(
        [target], system.entries_for(planned), tracer=tracer
    )

    print(f"\n[3/3] verified {len(target.claims)} claims:")
    agent_trace_shown = not arguments.verbose
    for claim in target.claims:
        report = run.report_for(claim)
        marker = "  OK   " if claim.correct else "FLAGGED"
        print(f"\n  [{marker}] {claim.sentence}")
        print(f"          stage: {report.verified_by or 'fallback'}, "
              f"attempts: {report.attempts}")
        if claim.query:
            print(f"          query: {claim.query}")
        if not agent_trace_shown and report.verified_by \
                and "agent" in report.verified_by:
            agent_trace_shown = True
            print("          (agent-verified claim; escalation paid off)")

    counts = score_claims(target.claims)
    spent = system.ledger.totals_since(checkpoint)
    print()
    print(_RULE)
    print(f"detection vs seeded errors: precision {counts.precision:.0%}, "
          f"recall {counts.recall:.0%}")
    print(f"spend: ${spent.cost:.4f} / {spent.calls} LLM calls / "
          f"{spent.total_tokens} tokens")
    print(_RULE)
    if arguments.trace:
        write_chrome_trace(tracer, arguments.trace,
                           process_name=f"cedar:{bundle.name}")
        print(f"trace: {tracer.span_count()} spans -> {arguments.trace} "
              "(open in https://ui.perfetto.dev)")
    if arguments.trace_summary:
        _print_trace_summary(self_time_table(tracer.roots))


def _print_trace_summary(rows: list[dict]) -> None:
    """Per-span-name self-time table: where the wall-clock went."""
    if not rows:
        print("trace summary: no spans recorded")
        return
    print("\ntrace summary (self time = span minus its children):")
    name_width = max(len("span"), max(len(r["name"]) for r in rows))
    print(f"  {'span':{name_width}}  {'kind':10}  {'count':>5}  "
          f"{'self (s)':>9}  {'total (s)':>9}")
    for row in rows:
        print(f"  {row['name']:{name_width}}  {row['kind']:10}  "
              f"{row['count']:5d}  {row['self_seconds']:9.4f}  "
              f"{row['total_seconds']:9.4f}")


if __name__ == "__main__":
    sys.exit(main())
