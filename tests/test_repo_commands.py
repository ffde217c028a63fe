"""No dangling commands: what the docs tell a reader to run exists.

Every ``make <target>`` written as code in the README, ``docs/*.md``,
the verify skill and the CI workflow must be a Makefile target, and
every ``python -m repro.experiments <name>`` must be an experiment the
runner knows (or ``all``). Deleting a target or an experiment without
its instructions fails here instead of in a reader's terminal.
"""

import glob
import os
import re

from repro.experiments.runner import EXPERIMENTS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MARKDOWN = [
    "README.md",
    *sorted(os.path.relpath(path, REPO_ROOT) for path in
            glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))),
    ".claude/skills/verify/SKILL.md",
]
WORKFLOW = ".github/workflows/ci.yml"

MAKE = re.compile(r"(?<![\w-])make\s+([A-Za-z][\w-]*)")
EXPERIMENT = re.compile(r"python3?\s+-m\s+repro\.experiments\s+([A-Za-z]\w*)")


def _read(relative):
    with open(os.path.join(REPO_ROOT, relative), encoding="utf-8") as handle:
        return handle.read()


def _code(text):
    """Fenced blocks and inline code spans, whitespace collapsed.

    Only code counts, so prose such as "make the run faster" is not
    read as a command; a span may wrap across lines.
    """
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    snippets = fence.findall(text)
    snippets += re.findall(r"`([^`]+)`", fence.sub("", text))
    return [" ".join(snippet.split()) for snippet in snippets]


def _commands():
    """(file, snippet) for every piece of code a reader may run."""
    for relative in MARKDOWN:
        for snippet in _code(_read(relative)):
            yield relative, snippet
    yield WORKFLOW, _read(WORKFLOW)


def _named(pattern):
    """(file, name) for every match of ``pattern`` in runnable code."""
    return [(relative, name) for relative, snippet in _commands()
            for name in pattern.findall(snippet)]


def test_every_make_target_in_the_docs_exists():
    targets = set(re.findall(r"^([A-Za-z][\w-]*)\s*:(?!=)",
                             _read("Makefile"), re.M))
    named = _named(MAKE)
    assert named                      # the scan itself still finds commands
    dangling = sorted(item for item in named if item[1] not in targets)
    assert not dangling, dangling


def test_every_experiment_in_the_docs_exists():
    named = _named(EXPERIMENT)
    assert named
    known = set(EXPERIMENTS) | {"all"}
    dangling = sorted(item for item in named if item[1] not in known)
    assert not dangling, dangling
