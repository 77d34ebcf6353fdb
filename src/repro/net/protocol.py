"""The wire protocol: length-prefixed frames, packed or JSON bodies.

Every message is one frame: a 4-byte big-endian unsigned length followed
by that many bytes of body encoding one object. Length prefixing (not
line framing) keeps the protocol binary-safe and makes partial reads
unambiguous: a reader always knows whether it is waiting for more bytes
or looking at a finished message — the property journal records already
rely on for torn-tail recovery, applied at the transport layer.

Request messages carry a client-chosen ``id`` that the response echoes,
so one connection can have many requests in flight — which is exactly
what the server's socket-layer coalescer exploits: concurrent ``query``
frames on one (or many) connections gather into one
``query_batch(strategy="auto")`` wave.

Message types (requests -> responses):

====================  =====================================================
``query``             ``{"type": "query", "id", "s", "t", "deadline_ms"?}``
                      -> ``result`` (a wire-encoded ``QueryOutcome``:
                      ``"id", "s", "t", "answer", "confident", "via",
                      "version", "detail"?, "retry_after_ms"?``)
``batch``             ``{"type": "batch", "id", "pairs": [[s, t], ...],
                      "strategy"?, "deadline_ms"?}`` -> ``batch-result``
                      (``{"type", "id", "outcomes": [outcome, ...]}``)
``update``            ``{"type": "update", "id", "op": "+"|"-", "u", "v"}``
                      -> ``update-result`` | ``error`` (read-only replica)
``stats``             ``{"type": "stats", "id"}`` -> ``stats-result`` with
                      the full service snapshot, server counters, role,
                      and watermark
``subscribe``         ``{"type": "subscribe", "id", "after": version}`` ->
                      ``subscribed`` (with a full ``snapshot`` when the
                      journal cannot serve ``after``), then a stream of
                      ``journal`` frames (shipped journal records)
``ping``              ``{"type": "ping", "id"}`` -> ``pong``
``lease``             ``{"type": "lease", "id", "epoch", "ttl_ms"}`` ->
                      ``lease-result`` — the supervisor's write-lease
                      grant/renewal; a primary that stops receiving
                      renewals demotes itself to read-only when the last
                      grant's TTL expires (split-brain guard)
``endpoints``         ``{"type": "endpoints", "id"}`` ->
                      ``endpoints-result`` — served by the *supervisor's*
                      control endpoint, not by data servers: the current
                      ``{"epoch", "primary": [host, port] | null,
                      "replicas": [[host, port], ...]}`` map failover
                      clients reconnect through
====================  =====================================================

Bodies. The four message types every read pays for — ``query``,
``result``, ``batch`` and ``batch-result`` — travel as packed ``struct``
bodies; every other type is UTF-8 JSON of one object. The body's first
byte picks the decoding: a tag byte ``0x01``–``0x04`` means packed
(JSON text never starts with one), anything else goes to ``json``.
Either way :meth:`FrameDecoder.feed` returns the same dict, so nothing
above the decoder knows which encoding a frame used. Packed layouts
(big-endian; ``q`` int64, ``i`` int32, ``I`` uint32, ``H`` uint16,
``B`` uint8):

================  =========================================================
``query``         ``>BqqqI``: tag 1, id, s, t, deadline_ms (0 = none)
``result``        ``>Bq``: tag 2, id; then one outcome record
``batch``         ``>BqIB``: tag 3, id, deadline_ms (0 = none),
                  len(strategy); the strategy's UTF-8 bytes; ``>I`` n;
                  then 2n int64 values ``s0 t0 s1 t1 ...``
``batch-result``  ``>BqI``: tag 4, id, n; then n outcome records
outcome record    ``>qqqBiBH``: s, t, version, flags (1 answer,
                  2 confident, 4 has retry_after_ms), retry_after_ms,
                  len(via), len(detail); then the via and detail UTF-8
                  bytes (``detail`` is omitted from the dict when empty)
================  =========================================================

Packing rule: :func:`encode` packs a message only when it matches its
type's schema exactly, and encodes anything else as JSON — so a
hand-written or unusual frame still round-trips unchanged. "Exactly"
means the same key set (``batch`` with its ``strategy``); ``type(v) is
int`` for ids, vertices, ``version``, ``retry_after_ms`` and
``deadline_ms`` (a ``bool`` is not an int), each inside its field —
int64, except ``retry_after_ms`` inside int32 and ``deadline_ms``, if
present, in ``[1, 2**32)`` (0 encodes "none"); ``type(v) is bool`` for
``answer``/``confident``; ``via`` and ``strategy`` at most 255 bytes of
UTF-8; ``detail``, if present, a non-empty string of at most 65535
bytes. A fast-path ``result`` frame is 61 bytes this way, against ~130
as JSON.

Errors at the request level come back as
``{"type": "error", "id", "error": reason}``; errors at the framing level
(oversized, truncated, or undecodable frames — a packed body of the
wrong size, with a string running past the frame, invalid UTF-8 or a
pair count the length disagrees with included) are connection-fatal and
raise :class:`ProtocolError`.

Reading is batched: every endpoint (server, client, supervisor) owns one
:class:`FrameDecoder` per connection and turns each socket read of up to
:data:`READ_SIZE` bytes into *all* the complete messages it holds, in one
pass, keeping only a partial tail for the next read. A pipelining peer's
burst of small frames therefore costs one ``await`` and one decode loop,
not two ``readexactly`` awaits per frame.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.engine import QueryOutcome

#: Frame header: 4-byte big-endian length.
_HEADER = struct.Struct(">I")

#: Hard ceiling on one frame; a graph snapshot of a few million edges
#: fits, anything larger is a framing bug, not a bigger message.
MAX_FRAME = 64 * 1024 * 1024

#: Most bytes one :meth:`FrameDecoder.read` takes off the socket.
READ_SIZE = 64 * 1024

# Request types.
QUERY = "query"
BATCH = "batch"
UPDATE = "update"
STATS = "stats"
SUBSCRIBE = "subscribe"
PING = "ping"
LEASE = "lease"
ENDPOINTS = "endpoints"

# Response / stream types.
RESULT = "result"
BATCH_RESULT = "batch-result"
UPDATE_RESULT = "update-result"
STATS_RESULT = "stats-result"
SUBSCRIBED = "subscribed"
JOURNAL = "journal"
PONG = "pong"
LEASE_RESULT = "lease-result"
ENDPOINTS_RESULT = "endpoints-result"
ERROR = "error"


class ProtocolError(RuntimeError):
    """The byte stream is not a valid frame sequence (connection-fatal)."""


# ----------------------------------------------------------------------
# Packed bodies
# ----------------------------------------------------------------------
_TAG_QUERY, _TAG_RESULT, _TAG_BATCH, _TAG_BATCH_RESULT = 1, 2, 3, 4

_QUERY = struct.Struct(">BqqqI")  # tag, id, s, t, deadline_ms
_RESULT = struct.Struct(">Bq")  # tag, id; then one outcome record
_BATCH = struct.Struct(">BqIB")  # tag, id, deadline_ms, len(strategy)
_BATCH_RESULT = struct.Struct(">BqI")  # tag, id, n; then n records
_COUNT = struct.Struct(">I")  # a batch's pair count
#: s, t, version, flags, retry_after_ms, len(via), len(detail).
_OUTCOME = struct.Struct(">qqqBiBH")

_ANSWER, _CONFIDENT, _HAS_RETRY = 1, 2, 4

#: ``deadline_ms`` values a packed body can carry (0 means absent).
_DEADLINE_MAX = 1 << 32

#: Keys of an outcome record, beyond ``detail``/``retry_after_ms``.
_OUTCOME_KEYS = 6


def _deadline(message: dict, keys: int) -> Tuple[int, int]:
    """``(deadline_ms or 0, key count)`` of a request with ``keys``
    required keys; raises :class:`ValueError` if the deadline does not
    pack."""
    if "deadline_ms" not in message:
        return 0, keys
    deadline = message["deadline_ms"]
    if type(deadline) is not int or not 0 < deadline < _DEADLINE_MAX:
        raise ValueError("deadline_ms does not pack")
    return deadline, keys + 1


def _pack_query(message: dict) -> bytes:
    deadline, keys = _deadline(message, 4)
    mid, s, t = message["id"], message["s"], message["t"]
    if (
        len(message) != keys
        or type(mid) is not int
        or type(s) is not int
        or type(t) is not int
    ):
        raise ValueError("not a packable query")
    return _QUERY.pack(_TAG_QUERY, mid, s, t, deadline)


def _pack_outcome(wire: dict, keys: int) -> bytes:
    """One outcome record; ``wire`` must hold exactly the outcome keys
    plus ``keys`` others. Values too wide for their field (a ``via``
    over 255 bytes, say) make ``struct`` raise."""
    keys += _OUTCOME_KEYS
    flags, retry, detail = 0, 0, b""
    if "retry_after_ms" in wire:
        retry = wire["retry_after_ms"]
        if type(retry) is not int:
            raise ValueError("retry_after_ms does not pack")
        flags, keys = _HAS_RETRY, keys + 1
    if "detail" in wire:
        text = wire["detail"]
        if type(text) is not str or not text:
            raise ValueError("detail does not pack")
        detail, keys = text.encode("utf-8"), keys + 1
    s, t, version = wire["s"], wire["t"], wire["version"]
    answer, confident, via = wire["answer"], wire["confident"], wire["via"]
    if (
        len(wire) != keys
        or type(s) is not int
        or type(t) is not int
        or type(version) is not int
        or type(answer) is not bool
        or type(confident) is not bool
        or type(via) is not str
    ):
        raise ValueError("not a packable outcome")
    via_bytes = via.encode("utf-8")
    if answer:
        flags |= _ANSWER
    if confident:
        flags |= _CONFIDENT
    head = _OUTCOME.pack(
        s, t, version, flags, retry, len(via_bytes), len(detail)
    )
    return head + via_bytes + detail


def _pack_result(message: dict) -> bytes:
    mid = message["id"]
    if type(mid) is not int:
        raise ValueError("not a packable result")
    return _RESULT.pack(_TAG_RESULT, mid) + _pack_outcome(message, 2)


def _pack_batch(message: dict) -> bytes:
    deadline, keys = _deadline(message, 4)
    mid, pairs, strategy = message["id"], message["pairs"], message["strategy"]
    if (
        len(message) != keys
        or type(mid) is not int
        or type(pairs) is not list
        or type(strategy) is not str
    ):
        raise ValueError("not a packable batch")
    flat: List[int] = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise ValueError("not a packable pair")
        flat += pair
    if not all(type(v) is int for v in flat):
        raise ValueError("not a packable pair")
    name = strategy.encode("utf-8")
    return b"".join((
        _BATCH.pack(_TAG_BATCH, mid, deadline, len(name)),
        name,
        _COUNT.pack(len(pairs)),
        struct.pack(f">{len(flat)}q", *flat),
    ))


def _pack_batch_result(message: dict) -> bytes:
    mid, outcomes = message["id"], message["outcomes"]
    if len(message) != 3 or type(mid) is not int or type(outcomes) is not list:
        raise ValueError("not a packable batch-result")
    records = [_BATCH_RESULT.pack(_TAG_BATCH_RESULT, mid, len(outcomes))]
    records += [_pack_outcome(wire, 0) for wire in outcomes]
    return b"".join(records)


_PACKERS: Dict[str, Callable[[dict], bytes]] = {
    QUERY: _pack_query,
    RESULT: _pack_result,
    BATCH: _pack_batch,
    BATCH_RESULT: _pack_batch_result,
}


def _unpack_query(data, start: int, stop: int) -> dict:
    if stop - start != _QUERY.size:
        raise ValueError("query body of the wrong size")
    _, mid, s, t, deadline = _QUERY.unpack_from(data, start)
    message = {"type": QUERY, "id": mid, "s": s, "t": t}
    if deadline:
        message["deadline_ms"] = deadline
    return message


def _unpack_outcome(data, pos: int, stop: int, wire: dict) -> int:
    """Fill ``wire`` from the outcome record at ``pos``; its end."""
    body = pos + _OUTCOME.size
    if body > stop:
        raise ValueError("outcome record runs past the frame")
    s, t, version, flags, retry, via_len, detail_len = _OUTCOME.unpack_from(
        data, pos
    )
    split = body + via_len
    end = split + detail_len
    if end > stop or flags > 7:
        raise ValueError("outcome record runs past the frame")
    wire["s"] = s
    wire["t"] = t
    wire["answer"] = bool(flags & _ANSWER)
    wire["confident"] = bool(flags & _CONFIDENT)
    wire["via"] = data[body:split].decode("utf-8")
    wire["version"] = version
    if detail_len:
        wire["detail"] = data[split:end].decode("utf-8")
    if flags & _HAS_RETRY:
        wire["retry_after_ms"] = retry
    return end


def _unpack_result(data, start: int, stop: int) -> dict:
    if stop - start < _RESULT.size:
        raise ValueError("result body of the wrong size")
    _, mid = _RESULT.unpack_from(data, start)
    message = {"type": RESULT, "id": mid}
    if _unpack_outcome(data, start + _RESULT.size, stop, message) != stop:
        raise ValueError("result body of the wrong size")
    return message


def _unpack_batch(data, start: int, stop: int) -> dict:
    pos = start + _BATCH.size
    if pos > stop:
        raise ValueError("batch body of the wrong size")
    _, mid, deadline, name_len = _BATCH.unpack_from(data, start)
    count_at = pos + name_len
    if count_at + _COUNT.size > stop:
        raise ValueError("batch body of the wrong size")
    strategy = data[pos:count_at].decode("utf-8")
    (n,) = _COUNT.unpack_from(data, count_at)
    pos = count_at + _COUNT.size
    if stop - pos != 16 * n:
        raise ValueError("batch pair count disagrees with its length")
    flat = iter(struct.unpack_from(f">{2 * n}q", data, pos))
    message = {
        "type": BATCH,
        "id": mid,
        "pairs": [[s, t] for s, t in zip(flat, flat)],
        "strategy": strategy,
    }
    if deadline:
        message["deadline_ms"] = deadline
    return message


def _unpack_batch_result(data, start: int, stop: int) -> dict:
    pos = start + _BATCH_RESULT.size
    if pos > stop:
        raise ValueError("batch-result body of the wrong size")
    _, mid, n = _BATCH_RESULT.unpack_from(data, start)
    outcomes = []
    for _ in range(n):
        wire: dict = {}
        pos = _unpack_outcome(data, pos, stop, wire)
        outcomes.append(wire)
    if pos != stop:
        raise ValueError("batch-result body of the wrong size")
    return {"type": BATCH_RESULT, "id": mid, "outcomes": outcomes}


#: Unpackers by tag byte; index 0 is never a tag.
_UNPACKERS = (
    None, _unpack_query, _unpack_result, _unpack_batch, _unpack_batch_result
)


def encode(message: dict) -> bytes:
    """One message as a length-prefixed frame: packed when it matches
    its type's schema exactly, JSON otherwise."""
    try:
        body = _PACKERS[message.get("type")](message)
    except (LookupError, TypeError, ValueError, struct.error):
        # Another type, or off its schema: JSON carries it unchanged.
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder for one byte stream.

    :meth:`feed` takes whatever the socket delivered and returns every
    message completed by it; an incomplete tail is kept for the next
    call. Framing errors surface as early as the bytes allow: an
    oversized frame is rejected from its header alone (its body is never
    buffered), an undecodable or non-object body when it completes, and
    :meth:`eof` raises if the stream ends inside a frame. Framing errors
    poison the stream position, so callers must drop the connection
    rather than resynchronize.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()  # the incomplete tail of the stream

    def feed(self, data: bytes) -> List[dict]:
        """The messages completed by ``data`` (possibly none)."""
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        messages = []
        pos, end = 0, len(data)
        while end - pos >= _HEADER.size:
            (length,) = _HEADER.unpack_from(data, pos)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
            start = pos + _HEADER.size
            stop = start + length
            if stop > end:
                break
            tag = data[start] if length else 0
            try:
                if 0 < tag < 5:
                    message = _UNPACKERS[tag](data, start, stop)
                else:
                    message = json.loads(data[start:stop])
            except ValueError as exc:  # incl. JSON and UTF-8 errors
                raise ProtocolError("undecodable frame body") from exc
            if not isinstance(message, dict):
                raise ProtocolError("frame body is not an object")
            messages.append(message)
            pos = stop
        if data is buffer:
            del buffer[:pos]
        elif pos < end:
            buffer += data[pos:]
        return messages

    def eof(self) -> None:
        """The stream ended: raise :class:`ProtocolError` unless it ended
        between frames."""
        if len(self._buffer) >= _HEADER.size:
            raise ProtocolError("truncated frame body")
        if self._buffer:
            raise ProtocolError("truncated frame header")

    async def read(self, reader: asyncio.StreamReader) -> Optional[List[dict]]:
        """One socket read's complete messages (possibly none), or
        ``None`` on clean EOF; truncation at EOF raises."""
        data = await reader.read(READ_SIZE)
        if not data:
            self.eof()
            return None
        return self.feed(data)


def outcome_to_wire(outcome: QueryOutcome) -> dict:
    """A :class:`QueryOutcome` as wire fields (merged into a response)."""
    wire = {
        "s": outcome.source,
        "t": outcome.target,
        "answer": outcome.answer,
        "confident": outcome.confident,
        "via": outcome.via,
        "version": outcome.version,
    }
    if outcome.detail:
        wire["detail"] = outcome.detail
    if outcome.retry_after_ms is not None:
        wire["retry_after_ms"] = outcome.retry_after_ms
    return wire


def outcome_from_wire(wire: dict) -> QueryOutcome:
    """The inverse of :func:`outcome_to_wire` (client-side decoding).

    The frame decoder already typed every field, so values are taken as
    they come."""
    return QueryOutcome(
        wire["s"],
        wire["t"],
        wire["answer"],
        wire["confident"],
        wire["via"],
        wire["version"],
        wire.get("detail", ""),
        wire.get("retry_after_ms"),
    )
