"""Worker lifecycle: health-checked spawn, crash detection, respawn.

The supervisor owns the worker *processes*; the router owns the *jobs*.
Each worker slot (shard index 0..N-1) cycles through incarnations:

    spawn -> connect+hello (health-checked, bounded) -> serving
          -> [connection drops] -> lost -> respawn (next incarnation)

A lost connection is the crash signal: the worker holds its end open
for its whole life, so EOF or a reset means the process died (or was
killed). The supervisor fails every pending request, tells the router
(which turns the shard's open jobs into structured ``worker_lost``
terminal events), and — unless the cluster is stopping — spawns a
fresh process into the same slot. Slots re-enter the consistent-hash
ring under their old identity, so a respawn restores the exact
pre-crash routing.

Graceful drain sends the protocol's ``drain`` op (the worker flushes
every accepted job before replying) followed by ``exit``; only a worker
that ignores both gets SIGTERM and, eventually, SIGKILL.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import os
import subprocess
import sys
import time
from typing import Awaitable, Callable

from .protocol import ProtocolError, encode_frame, read_frame_async

_log = logging.getLogger(__name__)

#: How long a single request waits for its response frame. Generous:
#: under full CPU load a worker's handler threads contend with its
#: verifier threads for the GIL.
REQUEST_TIMEOUT = 120.0


class WorkerGone(ConnectionError):
    """The worker's connection dropped before (or while) replying."""


class WorkerLink:
    """One worker incarnation's multiplexed protocol connection."""

    def __init__(self, worker_id: int, generation: int,
                 socket_path: str) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.socket_path = socket_path
        self.alive = False
        self.ready = False               # last health probe's verdict
        self.queue_depth = 0             # last health probe's backlog
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._streams: dict[int, Callable[[dict], None]] = {}
        self._send_lock = asyncio.Lock()
        self.on_lost: Callable[[WorkerLink, str], None] | None = None

    async def connect(self) -> dict:
        """Open the connection, start the reader, and shake hands."""
        reader, writer = await asyncio.open_unix_connection(self.socket_path)
        self._writer = writer
        self.alive = True
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
        hello = await self.request("hello")
        self.ready = True
        return hello

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        error = "connection closed"
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    break
                self._dispatch(frame)
        except (ProtocolError, ConnectionError, OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._close(error)

    def _dispatch(self, frame: dict) -> None:
        frame_id = frame.get("id")
        future = self._pending.get(frame_id)
        stream = self._streams.get(frame_id)
        if stream is not None:
            if frame.get("end") or "error" in frame:
                self._streams.pop(frame_id, None)
            stream(frame)
        elif future is not None:
            self._pending.pop(frame_id, None)
            if not future.done():
                future.set_result(frame)
        # Frames for forgotten ids (a timed-out request's late reply)
        # are dropped on purpose.

    def _close(self, error: str) -> None:
        was_alive = self.alive
        self.alive = False
        self.ready = False
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(WorkerGone(error))
        self._pending.clear()
        streams, self._streams = dict(self._streams), {}
        for frame_id, callback in streams.items():
            callback({"id": frame_id, "end": True, "lost": error})
        if was_alive and self.on_lost is not None:
            self.on_lost(self, error)

    async def _send(self, message: dict) -> None:
        if not self.alive or self._writer is None:
            raise WorkerGone("worker connection is down")
        async with self._send_lock:
            self._writer.write(encode_frame(message))
            await self._writer.drain()

    async def request(self, op: str,
                      timeout: float = REQUEST_TIMEOUT, **params) -> dict:
        """Send one op and await its (single) response frame."""
        frame_id = next(self._seq)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[frame_id] = future
        try:
            await self._send({"id": frame_id, "op": op, **params})
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(frame_id, None)

    async def subscribe(self, job_id: str, public_id: str,
                        callback: Callable[[dict], None]) -> None:
        """Stream a job's events to ``callback``: one ``lines`` frame
        per burst, already encoded under ``public_id``, the last one
        flagged ``end`` — or a synthesised ``end``/``lost`` frame if the
        worker dies first.
        """
        frame_id = next(self._seq)
        self._streams[frame_id] = callback
        try:
            await self._send({"id": frame_id, "op": "subscribe",
                              "job_id": job_id, "public_id": public_id})
        except WorkerGone:
            self._streams.pop(frame_id, None)
            raise

    def disconnect(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        self._close("disconnected by supervisor")


class WorkerProcess:
    """One shard slot: the subprocess plus its protocol link."""

    def __init__(self, worker_id: int, socket_path: str,
                 argv: list[str]) -> None:
        self.worker_id = worker_id
        self.socket_path = socket_path
        self.argv = argv
        self.generation = 0
        self.restarts = 0
        self.process: subprocess.Popen | None = None
        self.link: WorkerLink | None = None

    @property
    def alive(self) -> bool:
        return self.link is not None and self.link.alive

    @property
    def ready(self) -> bool:
        return self.link is not None and self.link.ready

    async def spawn(self, spawn_timeout: float,
                    env: dict[str, str]) -> WorkerLink:
        """Start the process and wait until it answers ``hello``."""
        self.generation += 1
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)
        self.process = subprocess.Popen(self.argv, env=env)
        link = WorkerLink(self.worker_id, self.generation, self.socket_path)
        deadline = time.monotonic() + spawn_timeout
        delay = 0.05
        while True:
            try:
                await link.connect()
                break
            except (ConnectionError, FileNotFoundError, OSError,
                    asyncio.TimeoutError):
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"worker {self.worker_id} exited with "
                        f"{self.process.returncode} during startup"
                    ) from None
                if time.monotonic() > deadline:
                    self.process.kill()
                    raise TimeoutError(
                        f"worker {self.worker_id} gave no handshake "
                        f"within {spawn_timeout}s"
                    ) from None
                await asyncio.sleep(delay)
                delay = min(0.4, delay * 2)
        self.link = link
        return link

    def kill(self) -> None:
        if self.link is not None:
            self.link.disconnect()
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)


class WorkerSupervisor:
    """Spawns, watches, respawns, and drains the worker fleet."""

    def __init__(
        self,
        worker_argv: Callable[[int, str], list[str]],
        socket_path: Callable[[int], str],
        count: int,
        spawn_timeout: float = 30.0,
        respawn: bool = True,
        on_worker_lost: Callable[[int, str], None] | None = None,
        on_worker_up: Callable[[int], None] | None = None,
    ) -> None:
        if count < 1:
            raise ValueError("a cluster needs at least one worker")
        self.spawn_timeout = spawn_timeout
        self.respawn = respawn
        self.on_worker_lost = on_worker_lost
        self.on_worker_up = on_worker_up
        self.stopping = False
        self.slots: dict[int, WorkerProcess] = {}
        for worker_id in range(count):
            path = socket_path(worker_id)
            self.slots[worker_id] = WorkerProcess(
                worker_id, path, worker_argv(worker_id, path)
            )
        self._env = dict(os.environ)
        # Workers must import the same repro tree the router runs,
        # regardless of how the router itself was launched.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        existing = self._env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            self._env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn every slot concurrently; raise if any fails its
        startup health check (and tear the rest down)."""
        try:
            await asyncio.gather(*(
                self._spawn_slot(slot) for slot in self.slots.values()
            ))
        except BaseException:
            self.kill_all()
            raise

    async def _spawn_slot(self, slot: WorkerProcess) -> None:
        link = await slot.spawn(self.spawn_timeout, self._env)
        link.on_lost = lambda _link, error: self._lost(slot, error)
        _log.info("worker_spawned", extra={"fields": {
            "worker": slot.worker_id, "generation": slot.generation,
            "pid": slot.process.pid if slot.process else None,
        }})
        if self.on_worker_up is not None:
            self.on_worker_up(slot.worker_id)

    def _lost(self, slot: WorkerProcess, error: str) -> None:
        _log.warning("worker_lost", extra={"fields": {
            "worker": slot.worker_id, "generation": slot.generation,
            "error": error,
            "will_respawn": not self.stopping and self.respawn,
        }})
        if self.on_worker_lost is not None:
            self.on_worker_lost(slot.worker_id, error)
        if not self.stopping and self.respawn:
            slot.restarts += 1
            asyncio.ensure_future(self._respawn(slot))

    async def _respawn(self, slot: WorkerProcess) -> None:
        # Reap the corpse first so the slot never hosts two processes.
        if slot.process is not None and slot.process.poll() is None:
            slot.process.terminate()
            with contextlib.suppress(subprocess.TimeoutExpired):
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: slot.process.wait(timeout=5.0)
                )
        try:
            await self._spawn_slot(slot)
        except (RuntimeError, TimeoutError) as error:
            _log.error("worker_respawn_failed", extra={"fields": {
                "worker": slot.worker_id, "error": str(error),
                "retrying": not self.stopping,
            }})
            if not self.stopping and self.respawn:
                await asyncio.sleep(0.5)
                asyncio.ensure_future(self._respawn(slot))

    # -- fleet-wide ops ------------------------------------------------------

    def live_workers(self) -> list[int]:
        return [w for w, slot in self.slots.items() if slot.alive]

    def link(self, worker_id: int) -> WorkerLink | None:
        slot = self.slots.get(worker_id)
        if slot is None or slot.link is None or not slot.link.alive:
            return None
        return slot.link

    async def broadcast(self, op: str,
                        timeout: float = REQUEST_TIMEOUT,
                        **params) -> dict[int, dict | None]:
        """Send ``op`` to every live worker; None marks a failed one."""

        async def _one(worker_id: int,
                       link: WorkerLink) -> tuple[int, dict | None]:
            try:
                return worker_id, await link.request(op, timeout, **params)
            except (WorkerGone, asyncio.TimeoutError):
                return worker_id, None

        pairs: list[Awaitable] = [
            _one(worker_id, slot.link)
            for worker_id, slot in self.slots.items()
            if slot.link is not None and slot.link.alive
        ]
        return dict(await asyncio.gather(*pairs))

    async def drain_all(self, timeout: float = 300.0) -> dict[int, bool]:
        """Graceful drain: every live worker flushes and confirms."""
        self.stopping = True
        _log.info("drain_started",
                  extra={"fields": {"workers": len(self.live_workers())}})
        replies = await self.broadcast("drain", timeout=timeout)
        results = {worker_id: bool(reply and reply.get("drained"))
                   for worker_id, reply in replies.items()}
        _log.info("drain_finished", extra={"fields": {
            "drained": sum(1 for ok in results.values() if ok),
            "workers": len(results),
        }})
        return results

    async def stop(self) -> None:
        """Exit every worker (politely, then forcefully)."""
        self.stopping = True
        with contextlib.suppress(Exception):
            await self.broadcast("exit", timeout=5.0)
        self.kill_all()

    def kill_all(self) -> None:
        self.stopping = True
        for slot in self.slots.values():
            slot.kill()

    @property
    def total_restarts(self) -> int:
        return sum(slot.restarts for slot in self.slots.values())
