#!/usr/bin/env python3
"""Reachability census: which functions under ``src/repro/`` ever run.

    python3 tools/census.py     # every entry point, then tier-1

Every Python process it starts — and every process those start, such
as the service, router and workers that ``bench/run.py`` spawns —
imports a ``sitecustomize`` put first on ``PYTHONPATH``. That hook
installs ``sys.setprofile`` and ``threading.setprofile`` and appends the
first call of each code object under ``src/repro/`` to one file per pid,
so a process that is killed keeps what it recorded.

The entry points are the ways the project is run: ``python -m
repro.experiments all``, four ``python -m repro.demo`` runs, every
``examples/*.py``, ``bench/run.py --seconds 4`` and ``pytest benchmarks/
--benchmark-disable`` (under ``--benchmark-only`` the pedantic runner
hides the bodies of ``experiments/ablations.py``). Tier-1 then runs
under the same hook, separately, so each function no entry point calls
is reported as called by the tests only or by nothing.

Functions are read from the source with ``ast``. A function is trivial
when its body, after the docstring, is one ``pass``, ``...``, ``raise``
or ``return`` of a name, attribute or constant; trivial functions are
counted but not listed. A never-called function nested in another
never-called function is folded into it, so no line is counted twice.
An entry point that exits non-zero is reported and the census goes on:
under the hook everything is several times slower, so a latency bound
in ``bench/run.py`` may trip without any function going unseen.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
#: Wall-clock cap for one entry point (the slowest, ``experiments all``,
#: takes under a minute under the hook on 2 vCPUs).
TIMEOUT_SECONDS = 900

HOOK = '''\
import os
import sys
import threading

_ROOT = os.environ.get("CEDAR_CENSUS_ROOT")
_OUT = os.environ.get("CEDAR_CENSUS_DIR")
if _ROOT and _OUT:
    _seen = set()
    _lock = threading.Lock()
    _sink = [None, None]    # [pid, file]

    def _census(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in _seen:
            return
        _seen.add(code)
        if not code.co_filename.startswith(_ROOT):
            return
        with _lock:
            pid = os.getpid()
            if _sink[0] != pid:     # first record, or a forked child
                _sink[0] = pid
                _sink[1] = open(os.path.join(_OUT, f"{pid}.txt"), "a")
            _sink[1].write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
            _sink[1].flush()

    sys.setprofile(_census)
    threading.setprofile(_census)
'''


def entry_points() -> list[tuple[str, list[str]]]:
    python = sys.executable
    demo = [python, "-m", "repro.demo"]
    points = [
        ("experiments all", [python, "-m", "repro.experiments", "all"]),
        ("demo --list", demo + ["--list"]),
        ("demo", demo + ["--trace-summary"]),
        ("demo tabfact", demo + ["--dataset", "tabfact"]),
        ("demo wikitext", demo + ["--dataset", "wikitext", "--verbose"]),
    ]
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        points.append((f"examples/{example.name}", [python, str(example)]))
    points.append(("bench/run.py --seconds 4",
                   [python, "bench/run.py", "--seconds", "4"]))
    points.append(("pytest benchmarks/", [
        python, "-m", "pytest", "benchmarks/", "--benchmark-disable",
        "-q", "-p", "no:cacheprovider",
    ]))
    return points


def tier1() -> list[str]:
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/"]


def run_hooked(label: str, argv: list[str], hook_dir: Path,
               out_dir: Path) -> None:
    """Run one command with the hook on ``PYTHONPATH``; report its exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["CEDAR_CENSUS_ROOT"] = str(PACKAGE) + os.sep
    env["CEDAR_CENSUS_DIR"] = str(out_dir)
    started = time.perf_counter()
    process = subprocess.Popen(argv, cwd=REPO_ROOT, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        status = process.wait(timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        status = process.wait()
    note = "" if status == 0 else f"  (exit {status})"
    print(f"  {label:<34} {time.perf_counter() - started:6.1f} s{note}",
          flush=True)


def recorded(out_dir: Path) -> set[tuple[str, int]]:
    """``(path relative to src/, first line)`` of every code object run."""
    seen = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, _, first_line = line.rpartition("\t")
            if filename and first_line.isdigit():
                seen.add((os.path.relpath(filename, SRC), int(first_line)))
    return seen


@dataclass
class Function:
    module: str             # path relative to src/, e.g. repro/llm/ledger.py
    first_line: int         # its code object's co_firstlineno
    name: str               # qualified within the module
    lines: int
    trivial: bool
    parent: Function | None  # the enclosing function, if any


def _trivial(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1:
        return not body
    statement = body[0]
    if isinstance(statement, (ast.Pass, ast.Raise)):
        return True
    if isinstance(statement, ast.Expr):
        return (isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis)
    if isinstance(statement, ast.Return):
        return statement.value is None or isinstance(
            statement.value, (ast.Name, ast.Attribute, ast.Constant))
    return False


def inventory() -> list[Function]:
    """Every function and method defined under ``src/repro/``."""
    functions: list[Function] = []

    def visit(node, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                function = Function(
                    module, first, prefix + child.name,
                    child.end_lineno - first + 1, _trivial(child), parent)
                functions.append(function)
                visit(child, module, f"{function.name}.<locals>.", function)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", parent)
            else:
                visit(child, module, prefix, parent)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(SRC))
        visit(ast.parse(path.read_text(), str(path)), module, "", None)
    return functions


def report(functions: list[Function], by_entry: set, by_tests: set) -> None:
    """Print each unreached function, then one row per module."""
    def key(function: Function) -> tuple[str, int]:
        return function.module, function.first_line

    def who(function: Function) -> str:
        return "tests only" if key(function) in by_tests else "nothing"

    # Unreached roots: never called on an entry point and not nested in
    # another unreached function (whose lines already include them).
    unreached = [
        function for function in functions
        if key(function) not in by_entry and not function.trivial
        and not (function.parent and key(function.parent) not in by_entry)
    ]
    print("\n== never called by an entry point (non-trivial, outermost) ==")
    for function in unreached:
        print(f"  {function.module}:{function.first_line} {function.name}"
              f" ({function.lines} lines) — {who(function)}")

    defined = defaultdict(int)
    for function in functions:
        defined[function.module] += 1
    # module -> who -> [functions, lines]
    rows: dict[str, dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0]))
    for function in unreached:
        for column in ("unreached", who(function)):
            rows[function.module][column][0] += 1
            rows[function.module][column][1] += function.lines
            rows["total"][column][0] += 1
            rows["total"][column][1] += function.lines
    columns = ["unreached", "tests only", "nothing"]
    print("\n== per module: functions (lines) ==")
    print(f"  {'module':<40} {'defined':>7}"
          + "".join(f" {column:>14}" for column in columns))
    for module in sorted(rows, key=lambda name: (name == "total", name)):
        cells = "".join(
            f" {rows[module][column][0]:>6} ({rows[module][column][1]:>5})"
            for column in columns)
        count = len(functions) if module == "total" else defined[module]
        print(f"  {module:<40} {count:>7}{cells}")


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="cedar-census-"))
    hook_dir, entry_dir, tests_dir = (work / "hook", work / "entry",
                                      work / "tests")
    for directory in (hook_dir, entry_dir, tests_dir):
        directory.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    try:
        print("== entry points ==")
        for label, command in entry_points():
            run_hooked(label, command, hook_dir, entry_dir)
        run_hooked("tier-1 (pytest tests/)", tier1(), hook_dir, tests_dir)
        report(inventory(), recorded(entry_dir), recorded(tests_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
