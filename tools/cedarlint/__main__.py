"""CLI: ``python -m tools.cedarlint [paths...]``.

Exit code is 1 iff any finding is *new* — i.e. not pragma-suppressed
and not in the checked-in baseline. Baselined warnings are reported but
don't fail the run, so CI can gate on "the baseline only shrinks".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import Baseline
from .diagnostics import CODES, ERROR, code_table
from .engine import LintConfig, LintResult, run_lint

#: Scanned when no paths are given — the one root list CI gates on.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "tools")

DEFAULT_BASELINE = "tools/cedarlint/baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.cedarlint",
        description=(
            "cedarlint: determinism, concurrency, and layering "
            "analysis for this repo"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help=f"files or directories to scan (default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--repo-root", type=Path, default=None,
        help="repository root paths are resolved against (default: cwd "
             "or the checkout containing this tool)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from this run's warnings and exit "
             "(refuses if any error-severity findings remain)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated code list to run (e.g. CDL011,CDL020)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="print the diagnostic code table and exit",
    )
    return parser


def _resolve_repo_root(arg: Path | None) -> Path:
    if arg is not None:
        return arg.resolve()
    here = Path(__file__).resolve()
    cwd = Path.cwd().resolve()
    try:
        here.relative_to(cwd)
        return cwd
    except ValueError:
        return here.parent.parent.parent  # tools/cedarlint/__main__.py


def _print_text(result: LintResult, baseline_count: int) -> None:
    for diagnostic in result.new:
        print(diagnostic.render())
    errors = sum(1 for d in result.new if d.severity == ERROR)
    warnings = len(result.new) - errors
    summary = (
        f"cedarlint: {result.files} files, {errors} errors, "
        f"{warnings} warnings"
    )
    extras = []
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed")
    if baseline_count and not result.baselined:
        extras.append(f"baseline has {baseline_count} stale entries")
    if extras:
        summary += f" ({', '.join(extras)})"
    print(summary)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_codes:
        for info in code_table():
            pragma = "" if info.suppressible else "  (unsuppressible)"
            print(f"{info.code}  {info.severity:7s} {info.family:12s} "
                  f"{info.summary}{pragma}")
        return 0

    repo_root = _resolve_repo_root(args.repo_root)
    names = args.paths or list(DEFAULT_ROOTS)
    roots = [
        path if path.is_absolute() else repo_root / path
        for path in (Path(name) for name in names)
    ]
    missing = [name for name, root in zip(names, roots) if not root.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = frozenset(
            code.strip().upper() for code in args.select.split(",")
            if code.strip()
        )
        unknown = select - CODES.keys()
        if unknown:
            print(f"unknown codes: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    baseline_path = args.baseline or repo_root / DEFAULT_BASELINE
    baseline = (
        Baseline() if args.no_baseline or args.write_baseline
        else Baseline.load(baseline_path)
    )

    result = run_lint(LintConfig(
        repo_root=repo_root,
        roots=roots,
        select=select,
        baseline=baseline,
    ))

    if args.write_baseline:
        errors = [d for d in result.findings if d.severity == ERROR]
        if errors:
            for diagnostic in errors:
                print(diagnostic.render(), file=sys.stderr)
            print(
                f"cedarlint: refusing to baseline {len(errors)} "
                "error-severity findings — fix or pragma them first",
                file=sys.stderr,
            )
            return 1
        count = Baseline.write(baseline_path, result.findings)
        print(f"cedarlint: wrote {count} entries to "
              f"{baseline_path.relative_to(repo_root)}")
        return 0

    if args.format == "json":
        print(json.dumps(
            {
                "files": result.files,
                "new": [d.to_dict() for d in result.new],
                "baselined": [d.to_dict() for d in result.baselined],
                "suppressed": result.suppressed,
            },
            indent=2,
        ))
    else:
        _print_text(result, len(baseline))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
