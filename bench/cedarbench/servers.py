"""Starting and stopping the system under test.

Every server is a child in its own process group, on port 0, with its
temp files (the cluster's socket dir) under ``bench/out/``. Teardown is
SIGTERM to the group (the CLIs drain on it), then SIGKILL after a grace
period — on every exit path, because the harness stops its server in a
``finally`` and ``run.py`` turns SIGTERM/SIGINT into exceptions.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from . import BENCH_DIR, OUT_DIR, REPO_ROOT, measure
from .client import WIRE_ERRORS, Budget, Connection
from .workloads import Workload

_ANNOUNCED_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")

#: AF_UNIX paths are capped at 108 bytes; the cluster puts
#: ``cedar-cluster-XXXXXXXX/worker-N.sock`` (37 bytes) under TMPDIR.
_SOCKET_TAIL_BYTES = 40
_SOCKET_PATH_LIMIT = 104


class ServerError(RuntimeError):
    """The server did not start, or died while the bench needed it."""


def server_argv(workload: Workload, extra: tuple[str, ...] = ()) -> list[str]:
    """The literal command line of ``workload``'s server."""
    head = {
        "service": [sys.executable, "-m", "repro.service"],
        "cluster": [sys.executable, "-m", "repro.cluster"],
        "launcher": [sys.executable, os.path.join(BENCH_DIR, "serve.py")],
    }[workload.server]
    return [*head, "--port", "0", *workload.server_args, *extra]


def _temp_root() -> str:
    """Where children put temp files: under ``bench/out`` unless that
    would push a Unix socket path over the kernel's limit."""
    inside = os.path.join(OUT_DIR, "t")
    if len(os.fsencode(inside)) + _SOCKET_TAIL_BYTES <= _SOCKET_PATH_LIMIT:
        os.makedirs(inside, exist_ok=True)
        return inside
    return tempfile.gettempdir()


class Server:
    """One running server (a process group) and how to reach it."""

    def __init__(self, argv: list[str], label: str,
                 start_timeout: float = 60.0) -> None:
        self.argv = argv
        self.label = label
        self.start_timeout = start_timeout
        self.port = 0
        self.spawned_at = 0.0
        self._process: subprocess.Popen | None = None
        self._temp_dir = ""
        self._log_path = os.path.join(OUT_DIR, "logs", f"{label}.log")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
            raise ServerError(
                f"no src/repro under {REPO_ROOT}: nothing to benchmark"
            )
        os.makedirs(os.path.dirname(self._log_path), exist_ok=True)
        self._temp_dir = tempfile.mkdtemp(prefix="s", dir=_temp_root())
        environment = dict(os.environ)
        source = os.path.join(REPO_ROOT, "src")
        inherited = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            source + os.pathsep + inherited if inherited else source
        )
        environment["TMPDIR"] = self._temp_dir
        environment["PYTHONUNBUFFERED"] = "1"
        # Every spawn compiles from source, so set-up time does not
        # depend on whether an earlier run left bytecode behind (and a
        # run leaves nothing in src/).
        environment["PYTHONDONTWRITEBYTECODE"] = "1"
        self.spawned_at = time.monotonic()
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                self.argv, cwd=REPO_ROOT, env=environment,
                stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.port = self._await_port()
        self._await_ready()

    def _await_port(self) -> int:
        deadline = self.spawned_at + self.start_timeout
        while time.monotonic() < deadline:
            with open(self._log_path, "r", errors="replace") as log:
                match = _ANNOUNCED_PORT.search(log.read())
            if match:
                return int(match.group(1))
            if self._process is not None and self._process.poll() is not None:
                break
            time.sleep(0.01)
        raise ServerError(f"{self.label}: no port announced; log tail:\n"
                          + self.log_tail())

    def _await_ready(self) -> None:
        deadline = self.spawned_at + self.start_timeout
        budget = Budget()
        while time.monotonic() < deadline:
            try:
                with Connection(self.port, budget, timeout=5.0) as probe:
                    status, _body = probe.get_json("/v1/readyz")
                if status == 200:
                    return
            except WIRE_ERRORS:
                pass
            time.sleep(0.01)
        raise ServerError(f"{self.label}: /v1/readyz never answered 200")

    def stop(self, grace_seconds: float = 10.0) -> None:
        """SIGTERM-drain, then SIGKILL, the whole process group."""
        process, self._process = self._process, None
        if process is not None:
            self._signal_group(process.pid, signal.SIGTERM)
            try:
                process.wait(grace_seconds)
            except subprocess.TimeoutExpired:
                pass
            # Whatever is left of the group (a wedged router, an
            # orphaned worker) goes the blunt way; then reap the leader.
            self._signal_group(process.pid, signal.SIGKILL)
            process.wait()
        if self._temp_dir:
            shutil.rmtree(self._temp_dir, ignore_errors=True)
            self._temp_dir = ""

    @staticmethod
    def _signal_group(pgid: int, signum: int) -> None:
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            pass  # the group is already gone

    # -- observation ---------------------------------------------------------

    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def pids(self) -> list[int]:
        """The server's processes: the leader and its descendants."""
        if self._process is None:
            return []
        return measure.process_tree(self._process.pid)

    def log_tail(self, lines: int = 15) -> str:
        try:
            with open(self._log_path, "r", errors="replace") as log:
                return "".join(log.readlines()[-lines:])
        except OSError:
            return ""
