"""Wire framing: round-trips, truncation, limits."""

import asyncio
import io
import struct

import pytest

from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    read_frame,
    read_frame_async,
)


def test_round_trip_single_frame():
    message = {"id": 7, "op": "submit", "payload": {"dataset": "aggchecker"}}
    assert read_frame(io.BytesIO(encode_frame(message))) == message


def test_round_trip_many_frames_back_to_back():
    messages = [{"id": index, "value": "x" * index} for index in range(20)]
    stream = io.BytesIO(b"".join(encode_frame(m) for m in messages))
    decoded = []
    while True:
        frame = read_frame(stream)
        if frame is None:
            break
        decoded.append(frame)
    assert decoded == messages


def test_clean_eof_returns_none():
    assert read_frame(io.BytesIO(b"")) is None


def test_truncated_length_raises():
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(b"\x00\x00"))


def test_truncated_body_raises():
    frame = encode_frame({"id": 1})
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(frame[:-2]))


def test_oversized_length_prefix_rejected_without_allocation():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(header))


def test_non_object_body_rejected():
    body = b"[1, 2, 3]"
    stream = io.BytesIO(struct.pack(">I", len(body)) + body)
    with pytest.raises(ProtocolError):
        read_frame(stream)


def test_async_reader_matches_blocking_reader():
    messages = [{"id": 1, "op": "hello"}, {"id": 2, "event": {"x": 1}}]
    wire = b"".join(encode_frame(m) for m in messages)

    async def _read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame_async(reader)
            if frame is None:
                break
            frames.append(frame)
        return frames

    assert asyncio.run(_read_all()) == messages


def test_lines_frames_carry_ndjson_lines_verbatim():
    """A ``subscribe`` burst: the lines arrive as the strings that went
    in — quotes, non-ASCII and all — through both readers."""
    import json

    from repro.service.events import ClaimVerdict, JobDone

    events = [
        ClaimVerdict(job_id="job-000001", claim_id="r1/c1",
                     verdict="incorrect", query='SELECT "naïve" FROM t'),
        JobDone(job_id="job-000001", claims=1, flagged=1,
                spend={"cost_usd": 0.01, "llm_calls": 1, "tokens": 9}),
    ]
    frame = {
        "id": 3,
        "lines": [json.dumps({**event.to_dict(), "job_id": "w0g1-job-1"},
                             sort_keys=True) for event in events],
        "last": events[-1].kind,
        "end": True,
    }
    wire = encode_frame(frame)
    assert read_frame(io.BytesIO(wire)) == frame

    async def _read():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return await read_frame_async(reader)

    assert asyncio.run(_read()) == frame


def test_async_reader_raises_on_truncation():
    async def _read():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"id": 1})[:-1])
        reader.feed_eof()
        await read_frame_async(reader)

    with pytest.raises(ProtocolError):
        asyncio.run(_read())


def test_encode_rejects_oversized_message():
    with pytest.raises(ProtocolError):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})
