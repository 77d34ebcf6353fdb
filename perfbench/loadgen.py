"""The load generator: server processes and closed-loop wire traffic.

One asyncio loop drives everything. :class:`ServerProcess` launches
``python -m repro serve`` (or the tracing launcher) on an ephemeral port
and reads the bound port from its banner. :func:`read_phase` keeps a fixed
number of queries in flight over one connection, each caller awaiting its
reply before sending the next; :func:`write_phase` replays updates over a
second connection, one at a time.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.client import ConnectionLost, ReachabilityClient, ServerError

from spec import Pair, Update

_BANNER = re.compile(r"serving n=\d+ m=\d+ on ([\d.]+):(\d+)")

#: Warm-up reads go out in batches of this many, up to the cap.
WARMUP_BATCH = 4096
WARMUP_MAX_READS = 65_536
#: Ladder rungs that answer without a search.
_NO_SEARCH = frozenset({"fastpath", "labels", "cache"})

#: Seconds a server may take to come up, and to exit after SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``serve`` subprocess in its own process group."""

    def __init__(self, argv: List[str], root: str, log_path: str) -> None:
        self.argv = argv
        self.root = root
        self.log_path = log_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host = ""
        self.port = 0

    async def start(self) -> None:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log_path, "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.argv,
                cwd=self.root,
                env=env,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        try:
            line = await asyncio.wait_for(self._banner(), START_TIMEOUT_S)
        except BaseException:
            await self.stop()
            raise
        match = _BANNER.search(line)
        self.host, self.port = match.group(1), int(match.group(2))

    async def _banner(self) -> str:
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                raise RuntimeError(
                    f"server exited before serving (see {self.log_path})"
                )
            line = raw.decode(errors="replace")
            if _BANNER.search(line):
                return line

    def cpu_seconds(self) -> float:
        """CPU time (user + system) the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def stop(self) -> None:
        """SIGTERM the server, then SIGKILL whatever is left of its
        process group after ``STOP_TIMEOUT_S``; waits until the group is
        gone.

        SIGTERM, not SIGINT: a shell that starts this benchmark in the
        background leaves SIGINT ignored in every child. The plain server
        needs no clean shutdown. Under the launcher in ``tracehook.py``,
        SIGTERM writes the spans, or shuts the server down cleanly so that
        a shard fleet releases its shared memory.
        """
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.communicate(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        deadline = perf_counter() + STOP_TIMEOUT_S
        while _signal_group(proc.pid, 0) and perf_counter() < deadline:
            await asyncio.sleep(0.05)
        _signal_group(proc.pid, signal.SIGKILL)
        await proc.wait()


def _signal_group(group: int, sig: int) -> bool:
    """Send ``sig`` to a process group; False once the group is gone."""
    try:
        os.killpg(group, sig)
    except ProcessLookupError:
        return False
    return True


def serve_argv(
    graph_path: str,
    *,
    journal: Optional[str] = None,
    extra: Sequence[str] = (),
    launcher: Optional[List[str]] = None,
) -> List[str]:
    """The ``serve`` command line; ``launcher`` replaces ``-m repro``."""
    cli = ["serve", graph_path, "--port", "0", *extra]
    if journal:
        cli += ["--journal", journal]
    if launcher is None:
        return [sys.executable, "-m", "repro", *cli]
    return [sys.executable, *launcher, "--", *cli]


@dataclass
class ReadResult:
    latencies: List[float] = field(default_factory=list)
    #: Reply time of every read, aligned with ``latencies``.
    replied: List[float] = field(default_factory=list)
    #: ``(s, t, answer, version)`` of every confident answer.
    answers: List[Tuple[int, int, bool, int]] = field(default_factory=list)
    via: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    start: float = 0.0
    end: float = 0.0


@dataclass
class WriteResult:
    latencies: List[float] = field(default_factory=list)
    #: ``(op, u, v, version)`` of every applied update, in order.
    acks: List[Tuple[str, int, int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0


async def read_phase(
    client: ReachabilityClient,
    pairs: Sequence[Pair],
    start_index: int,
    inflight: int,
    stop: asyncio.Event,
    hard_deadline: float,
) -> ReadResult:
    """Closed-loop reads until ``stop`` is set.

    Queries past ``hard_deadline`` (a hung server) are abandoned and
    counted as failed.
    """
    result = ReadResult()
    latencies, replied = result.latencies, result.replied
    answers, via = result.answers, result.via
    cursor = start_index
    n = len(pairs)
    failed = 0

    async def caller() -> None:
        nonlocal cursor, failed
        while not stop.is_set():
            s, t = pairs[cursor % n]
            cursor += 1
            sent = perf_counter()
            try:
                outcome = await client.query(s, t)
            except ServerError:
                failed += 1
                continue
            except ConnectionLost:
                failed += 1
                return
            now = perf_counter()
            latencies.append(now - sent)
            replied.append(now)
            via[outcome.via] = via.get(outcome.via, 0) + 1
            if outcome.confident and outcome.via not in ("shed", "error"):
                answers.append((s, t, outcome.answer, outcome.version))
            else:
                failed += 1

    result.start = perf_counter()
    cpu0 = _cpu()
    tasks = [asyncio.ensure_future(caller()) for _ in range(inflight)]
    done, pending = await asyncio.wait(
        tasks, timeout=max(0.0, hard_deadline - perf_counter())
    )
    for task in pending:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            failed += 1
    result.end = perf_counter()
    result.wall_s = result.end - result.start
    result.cpu_s = _cpu() - cpu0
    result.attempted = cursor - start_index
    result.failed = failed
    return result


async def write_phase(
    client: ReachabilityClient,
    updates: Sequence[Update],
    seconds: float,
    done: asyncio.Event,
    think_s: float = 0.0,
) -> WriteResult:
    """Apply updates in order, one at a time, pausing ``think_s`` after
    each reply, for ``seconds`` or until the stream runs out; then set
    ``done`` (the readers' stop signal)."""
    result = WriteResult()
    start = perf_counter()
    deadline = start + seconds
    try:
        for op, u, v in updates:
            if perf_counter() >= deadline:
                break
            result.attempted += 1
            sent = perf_counter()
            try:
                if op == "+":
                    reply = await client.add_edge(u, v)
                else:
                    reply = await client.remove_edge(u, v)
            except (ServerError, ConnectionLost):
                result.failed += 1
                break
            result.latencies.append(perf_counter() - sent)
            if reply["applied"]:
                result.acks.append((op, u, v, reply["version"]))
            else:
                result.failed += 1
            if think_s:
                pause = min(think_s, deadline - perf_counter())
                await asyncio.sleep(max(0.0, pause))
    finally:
        result.wall_s = perf_counter() - start
        done.set()
    return result


async def warm_up(client: ReachabilityClient, pairs: Sequence[Pair]) -> int:
    """Untimed set-up the first search-bound batch would otherwise pay
    inside the timed phase: the CSR snapshot freeze. Returns reads sent.

    Reads go out as explicit ``batch`` frames of ``WARMUP_BATCH`` pairs
    (one ``query_batch`` call each), so a pair that neither the fast path
    nor the labels decide — rare on uniform traffic — turns up within a
    chunk or two. Warm-up ends once the server has searched for such a
    pair (with kernels on, that froze the snapshot).
    """
    sent = 0
    while sent < WARMUP_MAX_READS:
        chunk = [pairs[(sent + i) % len(pairs)] for i in range(WARMUP_BATCH)]
        sent += len(chunk)
        outcomes = await client.query_batch(chunk, strategy="bitparallel")
        if any(o.via not in _NO_SEARCH for o in outcomes):
            break
    return sent


def _cpu() -> float:
    times = os.times()
    return times.user + times.system
