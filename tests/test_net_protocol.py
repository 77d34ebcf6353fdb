"""Wire framing: length-prefixed frames (packed and JSON bodies), the
incremental decoder, and outcome codecs."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.service.engine import QueryOutcome

pytestmark = pytest.mark.net


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


# ----------------------------------------------------------------------
# Packed bodies: query, result, batch, batch-result
# ----------------------------------------------------------------------
_TAGS = {"query": 1, "result": 2, "batch": 3, "batch-result": 4}
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_deadlines = st.integers(min_value=1, max_value=2**32 - 1)
_outcome_fields = {
    "s": _int64,
    "t": _int64,
    "answer": st.booleans(),
    "confident": st.booleans(),
    "via": st.text(max_size=20),
    "version": _int64,
}
_outcome_optional = {
    "detail": st.text(min_size=1, max_size=20),
    "retry_after_ms": _int32,
}


def _outcomes(min_size=0):
    return st.lists(
        st.fixed_dictionaries(_outcome_fields, optional=_outcome_optional),
        min_size=min_size,
        max_size=4,
    )


def _exact_messages(mtype, nonempty=False):
    """Messages that match ``mtype``'s packed schema exactly."""
    head = {"type": st.just(mtype), "id": _int64}
    if mtype == "query":
        return st.fixed_dictionaries(
            {**head, "s": _int64, "t": _int64},
            optional={"deadline_ms": _deadlines},
        )
    if mtype == "result":
        return st.fixed_dictionaries(
            {**head, **_outcome_fields}, optional=_outcome_optional
        )
    if mtype == "batch":
        pair = st.lists(_int64, min_size=2, max_size=2)
        return st.fixed_dictionaries(
            {
                **head,
                "pairs": st.lists(pair, min_size=int(nonempty), max_size=6),
                "strategy": st.text(max_size=12),
            },
            optional={"deadline_ms": _deadlines},
        )
    return st.fixed_dictionaries(
        {**head, "outcomes": _outcomes(min_size=int(nonempty))}
    )


_exact = st.one_of([_exact_messages(mtype) for mtype in _TAGS])


def _near_miss_edits(message):
    """``(path, value)`` edits that each take ``message`` off its schema;
    a path of ``None`` adds an extra key."""
    mtype = message["type"]
    if mtype == "batch":
        ints = [("pairs", 0, 0), ("pairs", 0, 1), ("id",)]
    elif mtype == "batch-result":
        ints = [("outcomes", 0, "s"), ("outcomes", 0, "version"), ("id",)]
    else:
        ints = [("id",), ("s",), ("t",)]
    edits = [(None, 1)]
    edits += [(path, value) for path in ints for value in (True, False)]
    edits += [(path, value) for path in ints for value in (2**63, -(2**63) - 1)]
    edits += [(("id",), value) for value in ("7", 7.0, None, [7])]
    if mtype in ("query", "batch"):
        edits += [(("deadline_ms",), value) for value in (-1, 2.5, 0, 2**32)]
    if mtype == "batch":
        edits.append((("strategy",), "s" * 256))
    outcome = {"result": (), "batch-result": ("outcomes", 0)}.get(mtype)
    if outcome is not None:
        edits.append((outcome + ("via",), "v" * 256))
        edits.append((outcome + ("via",), "é" * 128))  # 256 bytes of UTF-8
        edits.append((outcome + ("detail",), ""))
        edits.append((outcome + ("answer",), 1))
        edits.append((outcome + ("retry_after_ms",), 1.5))
        edits.append((outcome + ("retry_after_ms",), 2**31))
        edits.append((outcome + ("detail",), "d" * 65536))
    return edits


def _apply(message, path, value):
    message = json.loads(json.dumps(message))  # a deep copy
    if path is None:
        message["extra"] = value
        return message
    target = message
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return message


@st.composite
def _near_misses(draw):
    mtype = draw(st.sampled_from(sorted(_TAGS)))
    message = draw(_exact_messages(mtype, nonempty=True))
    path, value = draw(st.sampled_from(_near_miss_edits(message)))
    return _apply(message, path, value)


def _roundtrip(message):
    return json.loads(json.dumps(message))


@settings(max_examples=300, deadline=None)
@given(message=_exact)
def test_schema_exact_messages_pack_and_decode_as_json_would(message):
    frame = protocol.encode(message)
    assert frame[4] == _TAGS[message["type"]]
    assert protocol.FrameDecoder().feed(frame) == [_roundtrip(message)]


@settings(max_examples=300, deadline=None)
@given(message=_near_misses())
def test_near_miss_messages_fall_back_to_json(message):
    frame = protocol.encode(message)
    assert frame[4:5] == b"{"
    assert protocol.FrameDecoder().feed(frame) == [_roundtrip(message)]


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(_exact | _near_misses() | _messages, min_size=1, max_size=8),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=8),
)
def test_mixed_packed_and_json_stream_survives_any_chunking(frames, cuts):
    stream = b"".join(protocol.encode(f) for f in frames)
    bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    decoder = protocol.FrameDecoder()
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(decoder.feed(stream[lo:hi]))
    decoder.eof()
    assert out == [_roundtrip(f) for f in frames]


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


_RESULT = {
    "type": "result",
    "id": 1,
    "s": 3,
    "t": 9,
    "answer": True,
    "confident": True,
    "via": "fastpath",
    "version": 12,
}


def _body(message) -> bytes:
    return protocol.encode(message)[4:]


def _result_body(via_len: int, via: bytes, flags: int = 3) -> bytes:
    """A packed ``result`` body with chosen flags, via length and bytes."""
    return (
        struct.pack(">Bq", 2, 1)
        + struct.pack(">qqqBiBH", 3, 9, 12, flags, 0, via_len, 0)
        + via
    )


_QUERY_BODY = _body({"type": "query", "id": 1, "s": 3, "t": 9})
_BATCH_BODY = _body(
    {"type": "batch", "id": 1, "pairs": [[1, 2], [3, 4]], "strategy": "auto"}
)
_OUTCOME = {k: v for k, v in _RESULT.items() if k not in ("type", "id")}
_BATCH_RESULT_BODY = _body(
    {"type": "batch-result", "id": 1, "outcomes": [_OUTCOME, _OUTCOME]}
)


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(_QUERY_BODY[:-1], id="query-one-byte-short"),
        pytest.param(_QUERY_BODY + b"\x00", id="query-one-byte-long"),
        pytest.param(b"\x01", id="query-tag-only"),
        pytest.param(_body(_RESULT)[:-1], id="result-one-byte-short"),
        pytest.param(_body(_RESULT) + b"!", id="result-one-byte-long"),
        pytest.param(_body(_RESULT)[:20], id="result-head-cut"),
        pytest.param(_result_body(200, b"fastpath"), id="result-via-past-end"),
        pytest.param(_result_body(2, b"\xff\xfe"), id="result-via-bad-utf8"),
        pytest.param(_result_body(8, b"fastpath", 8), id="result-unknown-flag"),
        pytest.param(_BATCH_BODY[:-8], id="batch-pair-cut"),
        pytest.param(_BATCH_BODY + b"\x00" * 16, id="batch-extra-pair"),
        pytest.param(
            _BATCH_BODY.replace(b"\x00\x00\x00\x02", b"\x00\x00\x00\x03", 1),
            id="batch-count-too-high",
        ),
        pytest.param(
            _BATCH_BODY.replace(b"\x04auto", b"\xffauto"),
            id="batch-strategy-past-end",
        ),
        pytest.param(
            _BATCH_BODY.replace(b"auto", b"\xffuto"), id="batch-strategy-bad-utf8"
        ),
        pytest.param(_BATCH_RESULT_BODY[:-1], id="batch-result-cut"),
        pytest.param(_BATCH_RESULT_BODY + b"!", id="batch-result-long"),
        pytest.param(
            _BATCH_RESULT_BODY.replace(
                b"\x00\x00\x00\x02", b"\x00\x00\x00\x03", 1
            ),
            id="batch-result-count-too-high",
        ),
    ],
)
def test_malformed_packed_body_is_undecodable(body):
    decoder = protocol.FrameDecoder()
    with pytest.raises(protocol.ProtocolError, match="undecodable frame body"):
        decoder.feed(_frame(body))


def test_malformed_bodies_are_built_from_valid_ones():
    # The fixtures above differ from decodable bodies only where they say.
    for body in (_QUERY_BODY, _BATCH_BODY, _BATCH_RESULT_BODY):
        (message,) = protocol.FrameDecoder().feed(_frame(body))
        assert message["id"] == 1
    (message,) = protocol.FrameDecoder().feed(
        _frame(_result_body(8, b"fastpath"))
    )
    assert message == _RESULT


def test_packed_fastpath_result_frame_is_small():
    message = {
        **_RESULT,
        "id": 123456,
        "s": 19_998,
        "t": 7_421,
        "version": 90_210,
        "detail": "same-scc",
    }
    frame = protocol.encode(message)
    assert frame[4] == 2
    assert len(frame) <= 64
    json_body = json.dumps(message, separators=(",", ":")).encode()
    assert len(json_body) + 4 > 2 * len(frame)


def test_packed_result_decodes_to_the_outcome_it_encoded():
    outcome = QueryOutcome(
        1, 2, False, False, "shed", 7, "retry-after-ms=12", retry_after_ms=12
    )
    frame = protocol.encode(
        {"type": "result", "id": 5, **protocol.outcome_to_wire(outcome)}
    )
    assert frame[4] == 2
    (reply,) = protocol.FrameDecoder().feed(frame)
    assert protocol.outcome_from_wire(reply) == outcome
