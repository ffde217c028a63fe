"""No dangling commands: what the docs tell a reader to run exists.

Every ``make <target>`` written as code in the README, ``docs/*.md``,
the verify skill and the CI workflow must be a Makefile target, and
every ``python -m repro.experiments <name>`` must be an experiment the
runner knows (or ``all``). Every ``/v1/...`` path written as code in
the README or ``docs/*.md`` must be routed by a front door. Deleting a
target, an experiment or an endpoint without its instructions fails
here instead of in a reader's terminal.
"""

import glob
import http.client
import json
import os
import re
import threading

from repro.cluster.worker import dataset_builders
from repro.experiments.runner import EXPERIMENTS
from repro.service import ServiceConfig, VerificationService
from repro.service.http import ServiceApp, make_server

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
ENDPOINT = re.compile(r"(?:\b(GET|POST)\s+)?(/v1/[A-Za-z][^\s`'\"),]*)")


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


def _ask(address, method, path):
    """The reply to one request as (status, JSON body)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        # A POST names no dataset the door serves: a 400, not a job.
        body = b'{"dataset": ""}' if method == "POST" else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
        if response.getheader("Content-Type") != "application/json":
            return response.status, {}
        return response.status, json.loads(raw)
    finally:
        connection.close()


def test_every_endpoint_in_the_docs_is_routed():
    documented = sorted({
        (relative, method, path)
        for relative in MARKDOWN if not relative.startswith(".claude/")
        for snippet in _code(_read(relative))
        for method, path in ENDPOINT.findall(snippet)
    })
    assert documented
    service = VerificationService(ServiceConfig(workers=1))
    server = make_server(port=0, app=ServiceApp(
        service, datasets=dataset_builders("tiny"),
    ))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        unrouted = []
        for relative, method, path in documented:
            replies = [_ask(server.server_address[:2], verb, path)
                       for verb in ([method] if method else ["GET", "POST"])]
            if all(status == 404
                   and "no route for" in body.get("error", "")
                   for status, body in replies):
                unrouted.append((relative, method or "GET/POST", path))
        assert not unrouted, unrouted
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False)
        thread.join(timeout=10)
