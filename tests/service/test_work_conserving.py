"""The submit → verdict path never waits for nothing: an idle
dispatcher blocks in one indefinite ``pop()`` — no poll tick — and
``shutdown()`` wakes it by closing the queue.
"""

import time

from repro.service import ServiceConfig, VerificationService


def test_idle_dispatcher_blocks_once_and_shutdown_wakes_it():
    service = VerificationService(ServiceConfig())
    timeouts = []
    real_pop = service._queue.pop

    def recording_pop(timeout=None):
        timeouts.append(timeout)
        return real_pop(timeout)

    service._queue.pop = recording_pop
    service.start()
    time.sleep(0.15)  # seven poll ticks' worth, had there been a poll
    started = time.monotonic()
    service.shutdown(drain=True, timeout=5.0)
    assert time.monotonic() - started < 1.0
    assert timeouts == [None]
    assert not service._dispatcher.is_alive()
