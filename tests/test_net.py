"""Loopback tests for the wire layer: server, client, replication.

Everything runs against real sockets on 127.0.0.1 (ephemeral ports) with
``asyncio.run`` driving each scenario. Marked ``net`` — the tier-2 CI
leg runs this file alone (with a no-numpy leg); it also runs under the
tier-1 sweep, so every scenario is kept small and bounded.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import struct
import threading
import time

import pytest

from repro.graph import HAVE_NUMPY
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.net import (
    ConnectionLost,
    ReachabilityClient,
    ReachabilityServer,
    ReplicaNode,
    ServerError,
    protocol,
)
from repro.service.engine import ReachabilityService

pytestmark = pytest.mark.net

#: Safety net: no loopback scenario may hang the suite.
SCENARIO_TIMEOUT_S = 30.0


def run(coro):
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT_S)

    return asyncio.run(bounded())


def chain_graph(n: int = 40) -> DynamicDiGraph:
    # Two chains: pairs across them are unreachable, within reachable.
    edges = [(i, i + 1) for i in range(n)]
    edges += [(1000 + i, 1001 + i) for i in range(n)]
    return DynamicDiGraph(edges)


@contextlib.asynccontextmanager
async def serving(service, **server_kwargs):
    server = ReachabilityServer(service, port=0, **server_kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


async def wait_until(predicate, timeout_s: float = 10.0, step_s: float = 0.01):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(step_s)


# ----------------------------------------------------------------------
# Query / batch / update / stats over the wire
# ----------------------------------------------------------------------
def test_wire_queries_match_bfs_oracle():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service) as server:
                pairs = [(0, 40), (40, 0), (0, 1040), (1000, 1040), (5, 35)]
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    for s, t in pairs:
                        outcome = await client.query(s, t)
                        assert outcome.answer == is_reachable_bfs(graph, s, t)
                        assert outcome.confident
                        assert outcome.version == graph.version
                    batch = await client.query_batch(pairs)
                    assert [o.answer for o in batch] == [
                        is_reachable_bfs(graph, s, t) for s, t in pairs
                    ]

    run(scenario())


def test_concurrent_wire_queries_coalesce_into_waves():
    async def scenario():
        graph = chain_graph()
        # use_labels=False so the coalesced batch is not fully resolved by
        # the label prefilter — the point is to see it take the batch
        # pipeline's auto cutover rather than 32 scalar calls.
        with ReachabilityService(
            graph, num_workers=2, use_labels=False
        ) as service:
            # A gathering window makes wave packing deterministic: all
            # 32 concurrent queries are enqueued before the first drain.
            async with serving(
                service, coalesce_delay_s=0.05
            ) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    pairs = [(i, 40) for i in range(16)]
                    pairs += [(0, 1000 + i) for i in range(16)]
                    outcomes = await asyncio.gather(
                        *[client.query(s, t) for s, t in pairs]
                    )
                assert [o.answer for o in outcomes] == [True] * 16 + [
                    False
                ] * 16
                assert server.counters["net_coalesced_waves"] == 1
                assert server.counters["net_coalesced_queries"] == 32
        # The wave went through the batch pipeline, not 32 scalar calls.
        counters = service.stats()["counters"]
        assert (
            counters.get("batch_auto_bitparallel", 0)
            + counters.get("batch_auto_scalar", 0)
            + counters.get("batch_scalar_fallback", 0)
            >= 1
        )

    run(scenario())


def test_uncoalesced_server_serves_scalar_round_trips():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service, coalesce=False) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    outcomes = await asyncio.gather(
                        *[client.query(i, 40) for i in range(8)]
                    )
                assert all(o.answer for o in outcomes)
                assert "net_coalesced_waves" not in server.counters

    run(scenario())


def test_shed_response_carries_live_retry_after_hint():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, num_workers=2, max_pending=1
        ) as service:
            # Hold the drain long enough that the first query is still
            # queued (inflight=1) when the rest arrive -> they shed.
            async with serving(service, coalesce_delay_s=0.2) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    outcomes = await asyncio.gather(
                        *[client.query(0, 40) for _ in range(5)]
                    )
                shed = [o for o in outcomes if o.via == "shed"]
                served = [o for o in outcomes if o.via != "shed"]
                assert len(served) == 1 and served[0].answer
                assert len(shed) == 4
                for outcome in shed:
                    # The audit point: every wire rejection carries the
                    # machine-readable hint, not just a log line.
                    assert isinstance(outcome.retry_after_ms, int)
                    assert outcome.retry_after_ms >= 1
                    assert not outcome.confident
                assert server.counters["net_shed"] == 4

    run(scenario())


def test_update_over_wire_and_read_only_rejection():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    before = (await client.query(0, 2000)).answer
                    assert not before
                    applied = await client.add_edge(40, 2000)
                    assert applied["applied"]
                    assert applied["version"] == service.watermark
                    assert (await client.query(0, 2000)).answer
                    removed = await client.remove_edge(40, 2000)
                    assert removed["applied"]
            # Read-only (replica-role) servers reject writes loudly.
            async with serving(
                service, read_only=True, role="replica"
            ) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    with pytest.raises(ServerError, match="read-only"):
                        await client.add_edge(1, 2)
                    assert (await client.ping())["role"] == "replica"

    run(scenario())


def test_stats_frame_surfaces_occupancy_and_batch_counters():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    await client.query_batch(
                        [(i, 40) for i in range(12)], strategy="auto"
                    )
                    frame = await client.stats()
                assert frame["role"] == "primary"
                assert frame["watermark"] == graph.version
                derived = frame["stats"]["derived"]
                counters = frame["stats"]["counters"]
                # The satellite: occupancy, the batch_* family, and the
                # label-tier counters are on the wire, not just in-process.
                assert "word_occupancy" in derived
                if HAVE_NUMPY:
                    # Every batched pair was answered by some tier before
                    # a kernel had to run: prefilter, label matrix, or the
                    # auto cutover deciding on surviving pairs.
                    assert (
                        counters.get("batch_auto_bitparallel", 0)
                        + counters.get("batch_auto_scalar", 0)
                        + counters.get("batch_scalar_fallback", 0)
                        + counters.get("batch_prefilter_hits", 0)
                        + counters.get("label_hits_pos", 0)
                        + counters.get("label_hits_neg", 0)
                        >= 12
                    )
                    assert (
                        counters.get("label_hits_pos", 0)
                        + counters.get("label_hits_neg", 0)
                        >= 1
                    )
                    assert frame["stats"]["labels"]["bits"] >= 64
                else:
                    # No kernels: the whole batch takes the scalar
                    # fallback (counted per batch, not per pair) and the
                    # label tier never exists.
                    assert counters.get("batch_scalar_fallback", 0) >= 1
                assert frame["server"]["net_batches"] == 1
                assert frame["server"]["net_connections"] == 1

    run(scenario())


def test_protocol_error_drops_connection_but_not_server():
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service) as server:
                # Garbage header: an absurd frame length.
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                writer.write(b"\xff\xff\xff\xff")
                await writer.drain()
                assert await reader.read() == b""  # server hangs up
                writer.close()
                # The server survives and keeps serving.
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    assert (await client.query(0, 10)).answer
                assert server.counters["net_protocol_errors"] == 1

    run(scenario())


# ----------------------------------------------------------------------
# Batched frame I/O: queued frames, one reply write per wave
# ----------------------------------------------------------------------
def test_one_connection_wave_gets_one_transport_write(monkeypatch):
    writes = []
    original_write = asyncio.StreamWriter.write

    def counting_write(self, data):
        writes.append((self.get_extra_info("sockname")[1], bytes(data)))
        return original_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            # The gathering window lets all 32 frames queue first.
            async with serving(service, coalesce_delay_s=0.05) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    pairs = [(i % 40, 40) for i in range(32)]
                    outcomes = await asyncio.gather(
                        *[client.query(s, t) for s, t in pairs]
                    )
                assert all(o.answer for o in outcomes)
                assert server.counters["net_coalesced_waves"] == 1
                assert server.counters["net_coalesced_queries"] == 32
                assert server.counters["net_wave_writes"] == 1
                return server.port

    port = run(scenario())
    server_writes = [data for sport, data in writes if sport == port]
    # All 32 replies left the server in one write of 32 whole frames.
    assert len(server_writes) == 1
    replies = protocol.FrameDecoder().feed(server_writes[0])
    assert len({reply["id"] for reply in replies}) == 32
    assert all(reply["type"] == protocol.RESULT for reply in replies)


def test_connection_closed_mid_wave_spares_the_other_connections():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            wave_started = threading.Event()
            original_batch = service.query_batch

            def slow_batch(*args, **kwargs):
                wave_started.set()
                time.sleep(0.3)  # hold the wave in its executor thread
                return original_batch(*args, **kwargs)

            service.query_batch = slow_batch
            async with serving(service, coalesce_delay_s=0.05) as server:
                doomed = await ReachabilityClient.open(*server.address)
                async with await ReachabilityClient.open(
                    *server.address
                ) as survivor:
                    doomed_calls = [
                        asyncio.ensure_future(doomed.query(i, 40))
                        for i in range(8)
                    ]
                    survivor_calls = [
                        asyncio.ensure_future(survivor.query(0, 1000 + i))
                        for i in range(8)
                    ] + [
                        asyncio.ensure_future(survivor.query(i, 40))
                        for i in range(8)
                    ]
                    await wait_until(wave_started.is_set)
                    doomed._writer.transport.abort()
                    answers = await asyncio.gather(*survivor_calls)
                    assert [o.answer for o in answers] == [False] * 8 + [
                        True
                    ] * 8
                    assert all(o.confident for o in answers)
                    assert server.counters["net_coalesced_waves"] == 1
                    # The server keeps serving after the reset.
                    assert (await survivor.query(5, 35)).answer
                await asyncio.gather(*doomed_calls, return_exceptions=True)
                await doomed.close()

    run(scenario())


def test_stop_answers_queued_queries_with_server_stopped():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            # The window keeps every query queued when stop() arrives.
            server = await ReachabilityServer(
                service, port=0, coalesce_delay_s=10.0
            ).start()
            async with await ReachabilityClient.open(
                *server.address
            ) as client:
                calls = [
                    asyncio.ensure_future(client.query(i, 40))
                    for i in range(6)
                ]
                await wait_until(
                    lambda: server.counters.get("net_queries", 0) == 6
                )
                await server.stop()
                outcomes = await asyncio.gather(*calls)
            assert len(outcomes) == 6
            for outcome in outcomes:
                assert outcome.via == "error"
                assert outcome.detail == "server-stopped"
                assert not outcome.confident
            assert "net_coalesced_waves" not in server.counters

    run(scenario())


def test_half_closed_connection_still_gets_its_queued_replies():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service, coalesce_delay_s=0.05) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                writer.write(
                    b"".join(
                        protocol.encode(
                            {"type": "query", "id": i, "s": i, "t": 40}
                        )
                        for i in range(3)
                    )
                )
                writer.write_eof()  # EOF arrives before the wave runs
                decoder = protocol.FrameDecoder()
                replies = []
                while True:
                    messages = await decoder.read(reader)
                    if messages is None:
                        break
                    replies.extend(messages)
                writer.close()
                assert sorted(r["id"] for r in replies) == [0, 1, 2]
                assert all(r["answer"] for r in replies)

    run(scenario())


@pytest.mark.parametrize("coalesce", [True, False])
def test_malformed_query_gets_request_error_and_keeps_connection(coalesce):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service, coalesce=coalesce) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    with pytest.raises(ServerError, match="invalid literal"):
                        await client._request(
                            {"type": "query", "s": "zero", "t": 40}
                        )
                    with pytest.raises(ServerError):
                        await client._request({"type": "query", "s": 0})
                    # Same connection, still serving.
                    assert (await client.query(0, 40)).answer
                assert server.counters["net_request_errors"] == 2
                assert server.counters["net_queries"] == 1
                assert "net_protocol_errors" not in server.counters

    run(scenario())


@pytest.mark.parametrize("coalesce", [True, False])
def test_hand_written_json_frames_get_packed_replies(coalesce):
    """JSON ``query``/``batch`` frames are still answered; the server's
    replies use the packed bodies on every batch strategy."""

    def json_frame(message):
        body = json.dumps(message).encode("utf-8")
        return struct.pack(">I", len(body)) + body

    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service, coalesce=coalesce) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                requests = [
                    {"type": "query", "id": i, "s": i, "t": 40}
                    for i in range(3)
                ] + [
                    {
                        "type": "batch",
                        "id": 10 + k,
                        "pairs": [[0, 40], [40, 0], [0, 1040], [1000, 1040]],
                        "strategy": strategy,
                    }
                    for k, strategy in enumerate(
                        ("auto", "scalar", "bitparallel")
                    )
                ]
                writer.write(b"".join(json_frame(m) for m in requests))
                await writer.drain()
                data, replies = b"", []
                decoder = protocol.FrameDecoder()
                while len(replies) < len(requests):
                    chunk = await reader.read(protocol.READ_SIZE)
                    assert chunk, "server hung up"
                    data += chunk
                    replies.extend(decoder.feed(chunk))
                writer.close()
        by_id = {reply["id"]: reply for reply in replies}
        for i in range(3):
            assert by_id[i]["type"] == protocol.RESULT
            assert by_id[i]["answer"] is True
        for k in range(3):
            outcomes = by_id[10 + k]["outcomes"]
            assert [o["answer"] for o in outcomes] == [True, False, False, True]
        # Every reply frame is packed: walk the frames by their headers.
        pos = 0
        while pos < len(data):
            (length,) = struct.unpack_from(">I", data, pos)
            assert data[pos + 4] in (2, 4)
            pos += 4 + length

    run(scenario())


def test_requests_after_server_abort_raise_connection_lost():
    async def abort(reader, writer):
        writer.transport.abort()

    async def scenario():
        loop = asyncio.get_running_loop()
        logged = []
        loop.set_exception_handler(lambda _, context: logged.append(context))
        server = await asyncio.start_server(abort, "127.0.0.1", 0)
        try:
            port = server.sockets[0].getsockname()[1]
            client = await ReachabilityClient.open("127.0.0.1", port)
            await wait_until(client._reader_task.done)
            for _ in range(2):
                with pytest.raises(ConnectionLost):
                    await asyncio.wait_for(client.query(0, 1), 5.0)
            assert client._pending == {}
            await client.close()
        finally:
            server.close()
            await server.wait_closed()
        gc.collect()
        await asyncio.sleep(0)
        assert [context["message"] for context in logged] == []

    run(scenario())


def test_failed_request_write_raises_connection_lost_and_forgets_it():
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(graph, num_workers=2) as service:
            async with serving(service) as server:
                client = await ReachabilityClient.open(*server.address)
                try:
                    assert (await client.query(0, 10)).answer

                    async def broken_drain():
                        raise ConnectionResetError("Connection lost")

                    client._writer.drain = broken_drain
                    with pytest.raises(ConnectionLost, match="lost"):
                        await asyncio.wait_for(client.query(0, 10), 5.0)
                    assert client._pending == {}
                finally:
                    await client.close()

    run(scenario())


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
def test_replica_follows_primary_and_serves_at_watermark(tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                    service_kwargs={"num_workers": 2},
                )
                replica_server = await node.serve()
                runner = asyncio.create_task(node.run())
                try:
                    async with await ReachabilityClient.open(
                        *server.address
                    ) as client:
                        for i in range(5):
                            await client.add_edge(40, 5000 + i)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.watermark == service.watermark
                    assert node.service.graph == service.graph
                    # Reads served by the replica are stamped with the
                    # replication watermark.
                    async with await ReachabilityClient.open(
                        replica_server.host, replica_server.port
                    ) as client:
                        outcome = await client.query(0, 5004)
                        assert outcome.answer
                        assert outcome.version == node.watermark
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_replica_resumes_at_exact_watermark_after_reconnect(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        ) as service:
            server = ReachabilityServer(service, port=0)
            await server.start()
            port = server.port
            node = ReplicaNode(
                "127.0.0.1",
                port,
                tmp_path / "replica.wal",
                service_kwargs={"num_workers": 2},
                reconnect_delay_s=0.02,
            )
            runner = asyncio.create_task(node.run())
            try:
                service.add_edge(10, 600)
                await wait_until(lambda: node.watermark >= service.watermark)
                applied_before = node.records_applied
                snapshots_before = node.snapshots_loaded
                # Primary's server dies (service and journal survive).
                await server.stop()
                await wait_until(lambda: not node.connected)
                service.add_edge(10, 601)  # lands while disconnected
                # Server returns on the same port; replica resubscribes
                # at its watermark.
                server = ReachabilityServer(service, port=port)
                await server.start()
                await wait_until(lambda: node.watermark >= service.watermark)
                assert node.service.graph == service.graph
                # Exact resume: only the missed record was applied, the
                # pre-disconnect ones were deduped by version stamp.
                assert node.records_applied == applied_before + 1
                # Resume used the journal stream, not a fresh snapshot.
                assert node.snapshots_loaded == snapshots_before
            finally:
                node.stop()
                await runner
                await node.close()
                await server.stop()

    run(scenario())


def test_replica_bootstraps_from_snapshot_after_compaction(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        ) as service:
            service.add_edge(10, 700)
            # Compaction discards the records a fresh replica would need:
            # its subscribe(after=0) must fall back to a full snapshot.
            service.journal.checkpoint(service.graph, tmp_path / "p.ckpt")
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                    service_kwargs={"num_workers": 2},
                )
                runner = asyncio.create_task(node.run())
                try:
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.snapshots_loaded == 1
                    assert node.service.graph == service.graph
                    # The stream continues past the snapshot.
                    service.add_edge(10, 701)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.service.graph == service.graph
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_replica_survives_primary_compaction_mid_stream(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                    service_kwargs={"num_workers": 2},
                )
                runner = asyncio.create_task(node.run())
                try:
                    service.add_edge(10, 800)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    snapshots_before = node.snapshots_loaded
                    # Compact while the feed is live; the tailer follows
                    # the rename without a gap (it is fully caught up).
                    service.journal.checkpoint(
                        service.graph, tmp_path / "p.ckpt"
                    )
                    service.add_edge(10, 801)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.service.graph == service.graph
                    # A caught-up tailer follows the rename; no snapshot.
                    assert node.snapshots_loaded == snapshots_before
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_promote_after_primary_death_matches_bfs_oracle(tmp_path):
    """Kill-the-primary failover: the replica promotes through
    ``recover()`` on its local journal and answers exactly at its
    watermark — zero mismatches against a BFS oracle."""

    async def scenario():
        graph = chain_graph(20)
        service = ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        )
        server = await ReachabilityServer(service, port=0).start()
        node = ReplicaNode(
            *server.address,
            tmp_path / "replica.wal",
            service_kwargs={"num_workers": 2},
        )
        runner = asyncio.create_task(node.run())
        async with await ReachabilityClient.open(*server.address) as client:
            for i in range(10):
                await client.add_edge(20, 900 + i)
            await client.remove_edge(0, 1)
        await wait_until(lambda: node.watermark >= service.watermark)
        node.stop()
        await runner
        # Abrupt primary death; the replica's local journal is now the
        # only authority.
        await server.stop()
        oracle = service.graph.copy()
        watermark = node.watermark
        service.close()
        promoted = node.promote()
        try:
            assert node.promoted
            assert promoted.watermark == watermark == oracle.version
            pairs = [(0, 909), (2, 909), (0, 1), (1, 20), (20, 905)]
            pairs += [(i, 20) for i in range(0, 20, 3)]
            mismatches = [
                (s, t)
                for s, t in pairs
                if promoted.query(s, t).answer != is_reachable_bfs(oracle, s, t)
            ]
            assert mismatches == []
            # The promoted node accepts writes again.
            effect = promoted.add_edge(909, 0)
            assert effect.changed
        finally:
            await node.close()

    run(scenario())


def test_promoted_replica_server_flips_writable(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, num_workers=2, journal=tmp_path / "primary.wal"
        ) as service:
            server = await ReachabilityServer(service, port=0).start()
            node = ReplicaNode(
                *server.address,
                tmp_path / "replica.wal",
                service_kwargs={"num_workers": 2},
            )
            replica_server = await node.serve()
            runner = asyncio.create_task(node.run())
            await wait_until(lambda: node.watermark >= service.watermark)
            node.stop()
            await runner
            await server.stop()
        node.promote()
        try:
            async with await ReachabilityClient.open(
                replica_server.host, replica_server.port
            ) as client:
                assert (await client.ping())["role"] == "primary"
                applied = await client.add_edge(10, 999)
                assert applied["applied"]
                assert (await client.query(0, 999)).answer
        finally:
            await node.close()

    run(scenario())
