"""Wire framing: length-prefixed JSON frames, the incremental decoder,
and outcome codecs."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.service.engine import QueryOutcome


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _read_all(data: bytes):
    """Every message of a stream, read the way endpoints read sockets."""

    async def go():
        reader = _reader_with(data)
        decoder = protocol.FrameDecoder()
        out = []
        while True:
            messages = await decoder.read(reader)
            if messages is None:
                return out
            out.extend(messages)

    return asyncio.run(go())


def _read(data: bytes):
    """The first message of a stream, or None if it is empty."""
    messages = _read_all(data)
    return messages[0] if messages else None


def test_encode_read_roundtrip():
    message = {"type": "query", "id": 7, "s": 1, "t": 2}
    assert _read(protocol.encode(message)) == message


def test_multiple_frames_in_one_stream():
    frames = [{"type": "ping", "id": i} for i in range(3)]
    data = b"".join(protocol.encode(f) for f in frames)
    assert _read_all(data) == frames
    # One feed of the whole stream yields all of them at once.
    assert protocol.FrameDecoder().feed(data) == frames


def test_clean_eof_between_frames_is_none():
    assert _read(b"") is None
    decoder = protocol.FrameDecoder()
    decoder.feed(protocol.encode({"type": "ping"}))
    decoder.eof()  # between frames: no error


def test_eof_inside_header_raises():
    with pytest.raises(protocol.ProtocolError, match="header"):
        _read(protocol.encode({"type": "ping"})[:2])


def test_eof_inside_body_raises():
    frame = protocol.encode({"type": "ping", "id": 1})
    with pytest.raises(protocol.ProtocolError, match="body"):
        _read(frame[:-3])


def test_oversized_frame_rejected_without_reading_body():
    header = (protocol.MAX_FRAME + 1).to_bytes(4, "big")
    with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
        _read(header)
    # The header alone is enough: no body bytes and no EOF are needed.
    with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
        protocol.FrameDecoder().feed(header)


def test_undecodable_body_raises():
    body = b"{not json}"
    with pytest.raises(protocol.ProtocolError, match="undecodable"):
        _read(len(body).to_bytes(4, "big") + body)


def test_non_object_body_raises():
    body = b"[1,2,3]"
    with pytest.raises(protocol.ProtocolError, match="not an object"):
        _read(len(body).to_bytes(4, "big") + body)


def test_binary_safe_payloads():
    message = {"type": "query", "note": "newlines\nand é漢"}
    assert _read(protocol.encode(message)) == message


def test_frame_split_across_feeds_waits_for_its_tail():
    frame = protocol.encode({"type": "ping", "id": 3})
    decoder = protocol.FrameDecoder()
    assert decoder.feed(frame[:1]) == []
    assert decoder.feed(frame[1:-1]) == []
    assert decoder.feed(frame[-1:] + frame) == [{"type": "ping", "id": 3}] * 2
    decoder.eof()


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=12)
)
_messages = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(_messages, min_size=1, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=8),
    data=st.data(),
)
def test_arbitrary_chunking_decodes_the_same_messages(frames, cuts, data):
    encoded = [protocol.encode(f) for f in frames]
    stream = b"".join(encoded)
    bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    decoder = protocol.FrameDecoder()
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(decoder.feed(stream[lo:hi]))
    decoder.eof()
    assert out == frames

    # A stream cut inside a frame yields the frames before the cut and
    # raises at EOF.
    ends, total = [], 0
    for frame in encoded:
        total += len(frame)
        ends.append(total)
    cut = data.draw(
        st.integers(min_value=1, max_value=len(stream) - 1).filter(
            lambda k: k not in ends
        )
    )
    decoder = protocol.FrameDecoder()
    out = decoder.feed(stream[:cut])
    assert out == frames[: sum(1 for end in ends if end <= cut)]
    with pytest.raises(protocol.ProtocolError):
        decoder.eof()


def test_outcome_wire_roundtrip():
    outcome = QueryOutcome(3, 9, True, True, "engine", 42, "detail-text")
    wire = protocol.outcome_to_wire(outcome)
    assert wire["s"] == 3 and wire["version"] == 42
    assert "retry_after_ms" not in wire
    back = protocol.outcome_from_wire(wire)
    assert back == outcome


def test_outcome_wire_roundtrip_shed_with_retry_hint():
    outcome = QueryOutcome(
        1, 2, False, False, "shed", 7, "retry-after-ms=12", retry_after_ms=12
    )
    wire = protocol.outcome_to_wire(outcome)
    assert wire["retry_after_ms"] == 12
    back = protocol.outcome_from_wire(wire)
    assert back.retry_after_ms == 12
    assert back == outcome
