"""The asyncio serving front end over one :class:`ReachabilityService`.

Architecture
------------
One event loop owns all sockets; the (thread-based, GIL-releasing-on-IO)
service runs in executor threads. Four mechanisms make the wire cheap:

* **Batched frame I/O.** Each connection reads through one
  :class:`~repro.net.protocol.FrameDecoder`: a socket read of up to
  64 KiB yields every complete frame it holds in one decode pass. A
  ``query`` frame goes straight onto the coalescer queue, tagged with
  its connection and request id — no task, future or lock per frame.
  When a wave finishes, its replies are encoded (through
  ``protocol.encode``/``protocol.outcome_to_wire``) and joined into one
  buffer per connection, so a connection with 32 queries in the wave
  costs one ``writer.write`` (one ``send`` syscall), not 32 writes, 32
  lock round trips and 32 ``drain`` awaits. Other frame types get a
  handler task each and write their one reply frame whole.
* **Socket-layer coalescing.** ``query`` frames do not call
  ``service.query`` one by one: they enqueue onto a server-wide batch
  queue, and a single drain task gathers everything queued — across all
  connections — into one ``service.query_batch(strategy="auto")`` call
  per wave (the batch planner is the sink, so dedup, fast-path/cache
  pre-filtering, and bit-parallel kernel waves all engage). Under load
  the queue refills while a wave executes, so waves pack toward
  ``max_wave`` lanes exactly when batching pays most; an idle server
  degenerates to per-query dispatch with one queue hop of overhead.
* **Backpressure.** The connection loop awaits ``writer.drain()`` after
  each chunk it reads, so a peer that stops taking replies stops being
  read once its transport buffer fills. With ``service.max_pending``
  set, the coalescer also sheds at enqueue time once that many wire
  queries are queued or executing — before any executor thread is
  burned. Shed responses are built by
  :meth:`ReachabilityService.shed_outcome`, so every rejection carries
  the live ``retry_after_ms`` hint derived from observed engine-stage
  latency.
* **Journal shipping.** A ``subscribe`` frame turns the connection into
  a replication feed. One server-wide :class:`JournalFanout` owns the
  single live :class:`~repro.graph.journal.JournalTailer` — however many
  replicas subscribe, the journal file has one reader — and fans every
  new record out to per-subscriber queues. A fresh subscriber catches up
  with a one-off bounded read from its own resume point (version-stamp
  dedup reconciles the two streams), and one whose resume point was
  compacted away gets a full ``snapshot`` in the ``subscribed`` response
  first (one coherent read-locked graph capture), then the stream
  continues from the snapshot's version.

**Leases.** A supervisor (see :mod:`repro.net.supervisor`) renews a
write lease on the primary with every heartbeat. A primary that stops
hearing renewals — partitioned from its supervisor — demotes itself to
read-only once the last grant's TTL expires, *before* the supervisor's
fencing wait elapses and a replica is promoted in its place: at most one
writable primary exists at any instant. A server that never received a
lease (standalone operation) never demotes.

The server never trusts the network with correctness: every answer is a
:class:`~repro.service.engine.QueryOutcome` produced by the service
pipeline, version-stamped as usual, so a client can always tell which
snapshot — which replication watermark, on a replica — answered it.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.graph.journal import JournalGap, JournalTailer
from repro.net import protocol
from repro.service.engine import QueryOutcome, ReachabilityService

Pair = Tuple[int, int]


class _Connection:
    """The write side of one client connection.

    Every reply is one whole-frame ``writer.write`` (so replies never
    interleave) and is skipped once the peer is gone. ``queued`` counts
    the connection's coalesced queries that have no reply yet, so a
    connection closing on EOF can still hand them their answers.
    """

    __slots__ = ("writer", "queued", "_idle")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.queued = 0
        self._idle: Optional[asyncio.Future] = None

    def send(self, message: dict) -> None:
        self.write(protocol.encode(message))

    def write(self, data: bytes) -> bool:
        """Write ``data`` unless the connection is closing; whether it did."""
        if self.writer.is_closing():
            return False
        self.writer.write(data)
        return True

    def answered(self, count: int) -> None:
        self.queued -= count
        if not self.queued and self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    async def settled(self) -> None:
        """Wait until every queued query of this connection is answered."""
        if self.queued:
            self._idle = asyncio.get_running_loop().create_future()
            await self._idle


#: A coalescer queue entry: the pair, its deadline, and where the reply
#: goes (connection, request id).
_Queued = Tuple[Pair, Optional[float], _Connection, object]


class JournalFanout:
    """One shared journal reader feeding N subscriber queues.

    The first subscriber starts the pump: a single
    :class:`~repro.graph.journal.JournalTailer` anchored at the live
    watermark, polled by one task, every new record pushed onto every
    attached queue. Subscribers handle their own resume point with a
    one-off catch-up read (:meth:`ReachabilityServer._catch_up`);
    per-connection version-stamp dedup reconciles the catch-up stream
    with whatever the pump enqueued meanwhile. When the last subscriber
    detaches the pump stops and the tailer closes — an idle server holds
    no journal reader at all. A pump failure (gap, corrupt record)
    pushes ``None`` so every subscriber's feed ends and the replica
    resubscribes from scratch.
    """

    def __init__(self, server: "ReachabilityServer") -> None:
        self._server = server
        self._queues: set = set()
        self._task: Optional[asyncio.Task] = None

    @property
    def subscribers(self) -> int:
        return len(self._queues)

    def attach(self) -> "asyncio.Queue[Optional[dict]]":
        """Register a subscriber queue (starts the pump on first use)."""
        queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self._queues.add(queue)
        if self._task is None:
            tailer = JournalTailer(
                self._server.service.journal.path,
                after_version=self._server.service.watermark,
            )
            self._server._incr("net_tailers")
            self._task = asyncio.get_running_loop().create_task(
                self._pump(tailer)
            )
        return queue

    def detach(self, queue) -> None:
        self._queues.discard(queue)
        if not self._queues and self._task is not None:
            self._task.cancel()
            self._task = None

    async def _pump(self, tailer: JournalTailer) -> None:
        server = self._server
        journal = server.service.journal
        loop = asyncio.get_running_loop()
        try:
            while not server._closed:
                journal.publish()
                records = await loop.run_in_executor(None, tailer.poll)
                for record in records:
                    for queue in self._queues:
                        queue.put_nowait(record)
                if not records:
                    await asyncio.sleep(server._tail_poll_s)
        except asyncio.CancelledError:
            pass
        except Exception:
            server._incr("net_feed_errors")
            for queue in self._queues:
                queue.put_nowait(None)
        finally:
            tailer.close()

    async def close(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for queue in self._queues:
            queue.put_nowait(None)
        self._queues.clear()


class ReachabilityServer:
    """Serve one :class:`ReachabilityService` over asyncio sockets.

    Parameters
    ----------
    service:
        The service to serve. The server never closes it.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    coalesce:
        Gather concurrent ``query`` frames into ``query_batch`` waves
        (the default). ``False`` serves each query with a dedicated
        ``service.query`` executor call — the per-connection scalar
        round-trip baseline the loopback bench compares against.
    max_wave:
        Most queries drained into one ``query_batch`` call.
    coalesce_delay_s:
        Optional gathering window: how long the drain task waits after
        the first enqueue before draining, letting concurrent arrivals
        pack into the same wave. 0 (default) drains immediately —
        under real load the executor round-trip itself is the window.
    batch_strategy:
        Strategy handed to ``query_batch`` for coalesced waves.
    read_only:
        Reject ``update`` frames (replica mode). Flipped by
        :meth:`promote`.
    role:
        Advertised in ``stats-result`` frames (``"primary"`` /
        ``"replica"``).
    tail_poll_s:
        Subscriber feed poll interval when the journal is idle.
    """

    def __init__(
        self,
        service: ReachabilityService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce: bool = True,
        max_wave: int = 256,
        coalesce_delay_s: float = 0.0,
        batch_strategy: str = "auto",
        read_only: bool = False,
        role: str = "primary",
        tail_poll_s: float = 0.02,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.role = role
        self.read_only = read_only
        self._coalesce = coalesce
        self._max_wave = max(1, max_wave)
        self._coalesce_delay_s = max(0.0, coalesce_delay_s)
        self._batch_strategy = batch_strategy
        self._tail_poll_s = tail_poll_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Deque[_Queued] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._inflight = 0  # wire queries queued or executing
        self._closed = False
        self._conn_tasks: set = set()
        self._fanout: Optional[JournalFanout] = None
        # Write-lease state (supervised clusters only; see module doc).
        # A server that never receives a LEASE frame keeps
        # _lease_deadline=None and never demotes.
        self.lease_epoch = 0
        self._lease_deadline: Optional[float] = None
        # Single-threaded counters (event loop only); exposed via STATS.
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReachabilityServer":
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._coalesce:
            self._drain_task = asyncio.create_task(self._drain_loop())
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, fail queued queries, and close connections."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._fanout is not None:
            await self._fanout.close()
            self._fanout = None
        if self._drain_task is not None:
            self._drain_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain_task
        while self._queue:
            (s, t), _, conn, mid = self._queue.popleft()
            outcome = self._error_outcome(s, t, "server-stopped")
            conn.send(self._result(mid, outcome))
            conn.answered(1)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def promote(self, epoch: Optional[int] = None) -> None:
        """Flip a replica server writable (role and read-only gate).

        ``epoch`` stamps the promotion's lease epoch so a stale
        supervisor's older-epoch grants are rejected. The new primary is
        unleased (never demotes) until the first grant arrives.
        """
        self.read_only = False
        self.role = "primary"
        if epoch is not None:
            self.lease_epoch = int(epoch)
        self._lease_deadline = None

    def demote(self) -> None:
        """Drop to read-only (lease lost; the split-brain guard)."""
        if self.role == "demoted":
            return
        self.read_only = True
        self.role = "demoted"
        self._incr("net_demotions")

    def _maybe_demote(self) -> None:
        """Lazily enforce lease expiry (checked on every relevant frame)."""
        if (
            self._lease_deadline is not None
            and not self.read_only
            and self._loop is not None
            and self._loop.time() > self._lease_deadline
        ):
            self.demote()

    def _incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._incr("net_connections")
        conn = _Connection(writer)
        decoder = protocol.FrameDecoder()
        pending: set = set()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._closed:
                try:
                    messages = await decoder.read(reader)
                except protocol.ProtocolError:
                    self._incr("net_protocol_errors")
                    break
                if messages is None:
                    break
                for message in messages:
                    if self._coalesce and message.get("type") == protocol.QUERY:
                        self._enqueue_query(message, conn)
                        continue
                    # Dispatch without blocking the read loop: responses
                    # are written out of order (matched by id), which is
                    # what lets one connection keep many requests in
                    # flight.
                    handler = asyncio.create_task(
                        self._handle_message(message, conn)
                    )
                    pending.add(handler)
                    handler.add_done_callback(pending.discard)
                # Backpressure: a peer that stops taking replies stops
                # being read once the transport's buffer is full.
                await writer.drain()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            await conn.settled()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for handler in pending:
                handler.cancel()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_message(self, message: dict, conn: _Connection) -> None:
        mid = message.get("id")
        mtype = message.get("type")
        self._incr("net_requests")
        try:
            if mtype == protocol.QUERY:
                s, t = int(message["s"]), int(message["t"])
                deadline_s = self._deadline_s(message)
                self._incr("net_queries")
                outcome = await self._loop.run_in_executor(
                    None, lambda: self.service.query(s, t, deadline_s)
                )
                reply = self._result(mid, outcome)
            elif mtype == protocol.BATCH:
                reply = await self._serve_batch(message, mid)
            elif mtype == protocol.UPDATE:
                reply = await self._serve_update(message, mid)
            elif mtype == protocol.STATS:
                reply = await self._serve_stats(mid)
            elif mtype == protocol.PING:
                self._maybe_demote()
                reply = {
                    "type": protocol.PONG,
                    "id": mid,
                    "role": self.role,
                    "watermark": self.service.watermark,
                    "epoch": self.lease_epoch,
                }
            elif mtype == protocol.LEASE:
                reply = self._serve_lease(message, mid)
            elif mtype == protocol.SUBSCRIBE:
                await self._serve_subscription(message, conn)
                return
            else:
                reply = {
                    "type": protocol.ERROR,
                    "id": mid,
                    "error": f"unknown-type:{mtype}",
                }
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # per-request containment, never fatal
            reply = self._request_error(mid, exc)
        conn.send(reply)

    def _request_error(self, mid, exc: Exception) -> dict:
        self._incr("net_request_errors")
        return {
            "type": protocol.ERROR,
            "id": mid,
            "error": str(exc) or type(exc).__name__,
        }

    @staticmethod
    def _result(mid, outcome: QueryOutcome) -> dict:
        return {
            "type": protocol.RESULT,
            "id": mid,
            **protocol.outcome_to_wire(outcome),
        }

    @staticmethod
    def _deadline_s(message: dict) -> Optional[float]:
        deadline_ms = message.get("deadline_ms")
        return float(deadline_ms) / 1000.0 if deadline_ms else None

    # ------------------------------------------------------------------
    # Queries: the socket-layer coalescer
    # ------------------------------------------------------------------
    def _enqueue_query(self, message: dict, conn: _Connection) -> None:
        """Queue one ``query`` frame for the next wave (or shed it).

        No task, future or lock per frame: the queue entry names the
        connection and request id the wave's reply goes to.
        """
        mid = message.get("id")
        self._incr("net_requests")
        try:
            pair = (int(message["s"]), int(message["t"]))
            deadline_s = self._deadline_s(message)
        except Exception as exc:  # malformed request, not a framing error
            conn.send(self._request_error(mid, exc))
            return
        self._incr("net_queries")
        max_pending = self.service.max_pending
        if max_pending and self._inflight >= max_pending:
            # Socket-layer backpressure: shed before burning an executor
            # thread, with the same live retry-after hint the in-process
            # admission control attaches.
            self._incr("net_shed")
            outcome = self.service.shed_outcome(*pair, backlog=self._inflight)
            conn.send(self._result(mid, outcome))
            return
        self._inflight += 1
        conn.queued += 1
        self._queue.append((pair, deadline_s, conn, mid))
        self._wakeup.set()

    async def _drain_loop(self) -> None:
        while not self._closed:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._coalesce_delay_s:
                # Gathering window: let concurrent arrivals join the wave.
                await asyncio.sleep(self._coalesce_delay_s)
            while self._queue:
                items = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self._max_wave))
                ]
                await self._run_wave(items)

    async def _run_wave(self, items: List[_Queued]) -> None:
        pairs = [item[0] for item in items]
        deadlines = [d for _, d, _, _ in items if d is not None]
        deadline_s = min(deadlines) if deadlines else None
        self._incr("net_coalesced_waves")
        self._incr("net_coalesced_queries", len(items))
        try:
            outcomes = await self._loop.run_in_executor(
                None,
                lambda: self.service.query_batch(
                    pairs, deadline_s, strategy=self._batch_strategy
                ),
            )
        except Exception as exc:
            self._incr("net_wave_errors")
            detail = f"wave-failed:{type(exc).__name__}"
            outcomes = [self._error_outcome(s, t, detail) for s, t in pairs]
        finally:
            self._inflight -= len(items)
        # One joined buffer -- one transport write -- per connection.
        replies: Dict[_Connection, List[bytes]] = {}
        for (_, _, conn, mid), outcome in zip(items, outcomes):
            frame = protocol.encode(self._result(mid, outcome))
            replies.setdefault(conn, []).append(frame)
        for conn, frames in replies.items():
            if conn.write(b"".join(frames)):
                self._incr("net_wave_writes")
            conn.answered(len(frames))

    def _error_outcome(self, s: int, t: int, detail: str) -> QueryOutcome:
        return QueryOutcome(
            s, t, False, False, "error", self.service.graph.version, detail
        )

    # ------------------------------------------------------------------
    # Batch / update / stats
    # ------------------------------------------------------------------
    async def _serve_batch(self, message: dict, mid) -> dict:
        pairs = [(int(s), int(t)) for s, t in message.get("pairs", [])]
        strategy = message.get("strategy", "auto")
        deadline_s = self._deadline_s(message)
        self._incr("net_batches")
        self._incr("net_queries", len(pairs))
        outcomes = await self._loop.run_in_executor(
            None,
            lambda: self.service.query_batch(
                pairs, deadline_s, strategy=strategy
            ),
        )
        return {
            "type": protocol.BATCH_RESULT,
            "id": mid,
            "outcomes": [protocol.outcome_to_wire(o) for o in outcomes],
        }

    async def _serve_update(self, message: dict, mid) -> dict:
        self._maybe_demote()
        if self.read_only:
            self._incr("net_updates_rejected")
            return {
                "type": protocol.ERROR,
                "id": mid,
                "error": (
                    "read-only-demoted"
                    if self.role == "demoted"
                    else "read-only-replica"
                ),
                "role": self.role,
            }
        op = message.get("op")
        u, v = int(message["u"]), int(message["v"])
        if op == "+":
            apply = lambda: self.service.add_edge(u, v)  # noqa: E731
        elif op == "-":
            apply = lambda: self.service.remove_edge(u, v)  # noqa: E731
        else:
            return {
                "type": protocol.ERROR,
                "id": mid,
                "error": f"unknown-op:{op}",
            }
        self._incr("net_updates")
        effect = await self._loop.run_in_executor(None, apply)
        return {
            "type": protocol.UPDATE_RESULT,
            "id": mid,
            "applied": effect.changed,
            "version": effect.version,
        }

    async def _serve_stats(self, mid) -> dict:
        self._maybe_demote()
        snapshot = await self._loop.run_in_executor(None, self.service.stats)
        return {
            "type": protocol.STATS_RESULT,
            "id": mid,
            "role": self.role,
            "watermark": self.service.watermark,
            "epoch": self.lease_epoch,
            "stats": snapshot,
            "server": dict(self.counters),
        }

    def _serve_lease(self, message: dict, mid) -> dict:
        """Grant/renew the supervisor's write lease (epoch-fenced).

        Grants at a *stale* epoch are rejected — that is the split-brain
        guard's other half: after a failover bumps the epoch, an old
        supervisor's renewals cannot resurrect the demoted primary. A
        grant at a strictly *newer* epoch re-promotes a demoted server
        (the supervisor re-reached it and still considers it primary —
        it bumps the epoch precisely to prove the grant is fresh).
        """
        epoch = int(message.get("epoch", 0))
        ttl_ms = float(message.get("ttl_ms", 0.0))
        self._maybe_demote()
        if epoch < self.lease_epoch or (
            self.role == "demoted" and epoch == self.lease_epoch
        ):
            self._incr("net_leases_rejected")
            return {
                "type": protocol.LEASE_RESULT,
                "id": mid,
                "granted": False,
                "epoch": self.lease_epoch,
                "role": self.role,
                "watermark": self.service.watermark,
            }
        if self.role == "demoted":
            self._incr("net_lease_regrants")
            self.read_only = False
            self.role = "primary"
        self.lease_epoch = epoch
        self._lease_deadline = self._loop.time() + ttl_ms / 1000.0
        self._incr("net_leases")
        return {
            "type": protocol.LEASE_RESULT,
            "id": mid,
            "granted": True,
            "epoch": self.lease_epoch,
            "role": self.role,
            "watermark": self.service.watermark,
        }

    # ------------------------------------------------------------------
    # Replication: SUBSCRIBE feeds
    # ------------------------------------------------------------------
    def _catch_up_sync(self, after: int) -> Tuple[List[dict], int]:
        """One bounded read of the journal from ``after`` to its end.

        Runs in an executor thread with a throwaway tailer — the
        *persistent* reader is the fanout's single shared tailer; this
        read only covers the stretch between a fresh subscriber's resume
        point and the live position. Raises ``JournalGap`` when ``after``
        was compacted away.
        """
        tailer = JournalTailer(
            self.service.journal.path, after_version=after
        )
        try:
            records = tailer.poll()
            return records, tailer.last_version
        finally:
            tailer.close()

    async def _serve_subscription(self, message: dict, conn: _Connection) -> None:
        async def respond(reply: dict) -> None:
            # A feed is a stream, so it drains per frame: a slow replica
            # holds the feed back, and a vanished one raises here.
            conn.send(reply)
            await conn.writer.drain()

        mid = message.get("id")
        after = int(message.get("after", 0))
        journal = self.service.journal
        if journal is None:
            await respond(
                {"type": protocol.ERROR, "id": mid, "error": "no-journal"}
            )
            return
        self._incr("net_subscribers")
        if self._fanout is None:
            self._fanout = JournalFanout(self)
        fanout = self._fanout
        queue: Optional["asyncio.Queue[Optional[dict]]"] = None
        snapshot_block = None
        sent_ver = after
        try:
            # Attach *before* the catch-up read so no record falls in
            # the crack between the two: anything the pump ships while
            # we read the backlog lands in the queue and is deduped
            # below by version stamp.
            queue = fanout.attach()
            journal.publish()
            try:
                backlog, resume = await self._loop.run_in_executor(
                    None, self._catch_up_sync, after
                )
            except JournalGap:
                # The journal cannot serve `after` any more — bootstrap
                # the subscriber from a coherent full snapshot instead.
                edges, isolated, version = await self._loop.run_in_executor(
                    None, self.service.graph_snapshot
                )
                snapshot_block = {
                    "edges": [[u, v] for u, v in edges],
                    "vertices": isolated,
                    "version": version,
                }
                self._incr("net_snapshots_sent")
                sent_ver = version
                backlog, resume = await self._loop.run_in_executor(
                    None, self._catch_up_sync, version
                )
            subscribed = {
                "type": protocol.SUBSCRIBED,
                "id": mid,
                "version": resume,
                "role": self.role,
            }
            if snapshot_block is not None:
                subscribed["snapshot"] = snapshot_block
            await respond(subscribed)
            for record in backlog:
                if record["ver"] <= sent_ver:
                    continue
                await respond({"type": protocol.JOURNAL, **record})
                sent_ver = record["ver"]
                self._incr("net_journal_shipped")
            while not self._closed:
                record = await queue.get()
                if record is None:  # pump failed or server stopping
                    raise RuntimeError("journal feed interrupted")
                if record["ver"] <= sent_ver:
                    continue
                await respond({"type": protocol.JOURNAL, **record})
                sent_ver = record["ver"]
                self._incr("net_journal_shipped")
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:
            self._incr("net_feed_errors")
            with contextlib.suppress(Exception):
                await respond(
                    {
                        "type": protocol.ERROR,
                        "id": mid,
                        "error": f"feed-failed:{exc}",
                    }
                )
        finally:
            if queue is not None:
                fanout.detach(queue)
