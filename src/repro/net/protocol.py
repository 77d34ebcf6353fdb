"""The wire protocol: length-prefixed JSON frames.

Every message is one frame: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON encoding one object. Length prefixing
(not line framing) keeps the protocol binary-safe and makes partial reads
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
                      -> ``result`` (a wire-encoded ``QueryOutcome``)
``batch``             ``{"type": "batch", "id", "pairs": [[s, t], ...],
                      "strategy"?, "deadline_ms"?}`` -> ``batch-result``
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

Errors at the request level come back as
``{"type": "error", "id", "error": reason}``; errors at the framing level
(oversized, truncated, or undecodable frames) are connection-fatal and
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
from typing import List, Optional

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


def encode(message: dict) -> bytes:
    """One message as a length-prefixed frame."""
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
            try:
                message = json.loads(data[start:stop])
            except ValueError as exc:
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
    """The inverse of :func:`outcome_to_wire` (client-side decoding)."""
    return QueryOutcome(
        source=int(wire["s"]),
        target=int(wire["t"]),
        answer=bool(wire["answer"]),
        confident=bool(wire["confident"]),
        via=str(wire["via"]),
        version=int(wire["version"]),
        detail=str(wire.get("detail", "")),
        retry_after_ms=(
            int(wire["retry_after_ms"])
            if wire.get("retry_after_ms") is not None
            else None
        ),
    )
