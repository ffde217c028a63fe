"""Length-prefixed JSON frames: the router <-> worker wire protocol.

One frame = a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding one object. That is the whole format — no content
negotiation, no compression — because both ends are the same codebase
on the same machine and the values are small control messages; job
*payloads* are dataset references, never documents, so frames stay tiny.

Requests carry a caller-chosen ``id``; every response frame echoes it,
which is what lets the router multiplex all traffic to a worker over a
single connection: a reader task dispatches each arriving frame to the
pending request (or event subscription) with that id. Most ops produce
exactly one response; ``subscribe`` produces one ``{"id", "lines",
"last"}`` frame per burst of job events — ``lines`` being the ndjson
lines clients will read, encoded once by the worker and never decoded
again on the way out — the final one also carrying ``"end": true``.

The module deliberately has both a blocking reader (the worker side is
threaded, like the service it wraps) and an asyncio reader (the router
side is a single event loop).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO

#: Upper bound on one frame's JSON body. Stats snapshots and span
#: forests are the largest frames and sit far below this; anything bigger is a
#: corrupt length prefix, and failing fast beats a 4 GiB allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame (bad length, truncated body, non-object JSON)."""


def encode_frame(message: dict) -> bytes:
    """Serialise one message to its wire form."""
    body = json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


def _decode_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def read_frame(stream: BinaryIO) -> dict | None:
    """Blocking read of one frame; None on clean EOF at a boundary."""
    header = stream.read(_LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        raise ProtocolError("truncated frame length")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    body = b""
    while len(body) < length:
        chunk = stream.read(length - len(body))
        if not chunk:
            raise ProtocolError("truncated frame body")
        body += chunk
    return _decode_body(body)


async def read_frame_async(reader: asyncio.StreamReader) -> dict | None:
    """Asyncio read of one frame; None on clean EOF at a boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("truncated frame length") from error
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("truncated frame body") from error
    return _decode_body(body)


# -- trace context on the wire -----------------------------------------------
#
# Distributed tracing crosses the socket as a tiny dict riding the
# ``submit`` request under the ``"trace"`` key. It names the router's
# trace and the span the worker's tree will be grafted under, nothing
# more — span payloads travel the *other* way, via the ``trace`` op,
# only when a stitched trace is actually requested.


def make_trace_context(trace_id: str, parent_span: str = "1") -> dict:
    """The trace context attached to a routed submit frame.

    ``parent_span`` is a structural span reference (render-time id of
    the router's job root — ``"1"`` since the stitched tree has one
    root), not a random span id: ids here are positions, so the
    reference is stable across reruns.
    """
    return {"trace_id": str(trace_id), "parent_span": str(parent_span)}


def parse_trace_context(payload) -> dict | None:
    """Validate a wire trace context; None when absent or malformed.

    Malformed contexts are dropped rather than rejected — tracing is
    observability, and a bad context must never fail the job itself.
    """
    if not isinstance(payload, dict):
        return None
    trace_id = payload.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    parent_span = payload.get("parent_span", "1")
    return {"trace_id": trace_id, "parent_span": str(parent_span)}

