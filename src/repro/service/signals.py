"""Graceful-drain signal handling shared by the service and cluster CLIs.

``python -m repro.service`` and ``python -m repro.cluster`` (and each
cluster worker process) all want the same SIGTERM/SIGINT behaviour:

* the **first** signal starts a graceful drain — stop accepting, finish
  what was admitted, flush state — instead of killing mid-job;
* a **second** signal falls back to the previous (usually default,
  i.e. kill) disposition, so a stuck drain can still be interrupted.

The callback runs inside the signal handler frame, so it must only do
cheap, thread-safe things: set events, start a thread, call
``loop.call_soon_threadsafe``. Only the main thread of the main
interpreter may install handlers (a CPython rule); callers embedding the
service elsewhere should wire their own shutdown path instead.
"""

from __future__ import annotations

import signal
from typing import Callable

#: The signals a process manager (or a Ctrl-C) sends to stop us.
DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def install_drain_handlers(
    drain: Callable[[int], None],
    signals: tuple[signal.Signals, ...] = DRAIN_SIGNALS,
) -> dict[signal.Signals, object]:
    """Route the first of ``signals`` to ``drain(signum)``, once.

    The previous dispositions are restored *before* the callback runs,
    so the second signal of either kind behaves as it did before
    installation. Returns the replaced handlers, letting callers restore
    them early (tests do).
    """
    previous: dict[signal.Signals, object] = {}

    def handler(signum: int, frame: object) -> None:
        restore_handlers(previous)
        drain(signum)

    for signum in signals:
        previous[signum] = signal.signal(signum, handler)
    return previous


def restore_handlers(previous: dict[signal.Signals, object]) -> None:
    """Put back the dispositions replaced by :func:`install_drain_handlers`."""
    for signum, old in previous.items():
        try:
            signal.signal(signum, old)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            # Non-callable sentinel or not the main thread: leave as-is.
            pass
