"""End-to-end wire benchmark of ``repro serve`` (default configuration).

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-uniform --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed``, then launches the server as
a subprocess several times. Every launch is warmed up (untimed), driven
over the wire from this process's asyncio loop for its share of
``--seconds``, and stopped; each end-to-end metric is the median over the
launches. A seeded sample of answers is checked against a BFS oracle at
the graph version each answer reports. The last line of standard output
is one JSON object. ``--trace 1`` alternates untraced and traced launches
and reports per-layer metrics instead; ``--ablation NAME`` reruns the
workload with one shipped layer changed and labels the result as an
ablation. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from layers import PER_LAYER, SpanSet, layer_table, per_layer_metrics, percentile
from oracle import check_answers, sample_answers
from tracehook import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Queries kept in flight by the closed-loop readers.
INFLIGHT = 32
#: Server launches per run. Throughput and tail latency move by tens of
#: percent from one server process to the next on a shared 2-core host,
#: so every end-to-end metric is the median over launches.
LAUNCHES = 5
#: Untraced/traced launch pairs in a ``--trace 1`` run.
TRACE_PAIRS = 2
#: Oracle sample per run: answers checked, and at most this many graph
#: versions per launch (each version costs the oracle one CSR build).
ORACLE_ANSWERS = 512
ORACLE_VERSIONS = 4
#: Grace beyond ``--seconds`` before outstanding requests count as failed.
HANG_GRACE_S = 60.0

#: ``name -> (extra serve flags, launcher flags)`` for report-only runs.
ABLATIONS = {
    "labels-off": ([], ["--no-labels"]),
    "coalesce-off": (["--no-coalesce"], []),
    "kernels-off": (["--no-kernels"], []),
    "shards-2": (["--shards", "2"], []),
}

#: The checked end-to-end metrics (``BENCHMARK.json``) and their units.
#: Read throughput, the read tail and server CPU per read are printed but
#: not checked: on a shared 2-core host their spread across seeds exceeds
#: the bound a checked metric may have (see README.md).
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablation", choices=sorted(ABLATIONS))
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The generators and the client come from the checkout under test;
    # they are imported only once it is known to exist.
    sys.path.insert(0, str(ROOT / "src"))
    from spec import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace and args.ablation:
        print("--trace and --ablation are separate runs", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = asyncio.run(
            asyncio.wait_for(
                _run(args, WORKLOADS[args.workload], workdir),
                150 + 2 * args.seconds,
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(record))
    return 0


class Session:
    """Server launches for one run, each warmed up and then measured."""

    def __init__(self, inputs, workdir: Path, launcher=None, extra=()):
        self.inputs = inputs
        self.workdir = workdir
        self.launcher = launcher
        self.extra = list(extra)
        self.launches = 0

    async def measure(self, seconds: float, launcher=None) -> dict:
        """Launch, warm up, run one timed phase, stop; the raw results.

        Launch ``k`` replays update stream ``k``. ``launcher`` overrides
        the session's (used for traced launches).
        """
        from loadgen import ServerProcess, read_phase, serve_argv, warm_up, write_phase
        from repro.net.client import ReachabilityClient

        workload = self.inputs.workload
        self.launches += 1
        journal = None
        if workload.writes:
            journal = str(self.workdir / f"wal-{self.launches}.jsonl")
        server = ServerProcess(
            serve_argv(
                str(self.workdir / "graph.txt"),
                journal=journal,
                extra=self.extra,
                launcher=launcher or self.launcher,
            ),
            str(ROOT),
            str(self.workdir / "server.log"),
        )
        start = perf_counter()
        await server.start()
        client = writer_client = None
        try:
            client = await ReachabilityClient.open(server.host, server.port)
            warmed = await warm_up(client, self.inputs.reads)
            setup_s = perf_counter() - start
            base_version = (await client.ping())["watermark"]
            stats_before = await client.stats()
            stop = asyncio.Event()
            hard_deadline = perf_counter() + seconds + HANG_GRACE_S
            writer = timer = None
            # A collection here would scan this process's copies of the
            # inputs and stall every read in flight; the load generator's
            # own pauses are not the server's latency.
            gc.disable()
            cpu_before = server.cpu_seconds()
            if workload.writes:
                writer_client = await ReachabilityClient.open(
                    server.host, server.port
                )
                writer = asyncio.ensure_future(
                    write_phase(
                        writer_client,
                        self.inputs.updates[self.launches - 1],
                        seconds,
                        stop,
                        workload.writer_think_s,
                    )
                )
            else:
                timer = asyncio.get_running_loop().call_later(seconds, stop.set)
            reads = await read_phase(
                client, self.inputs.reads, warmed, INFLIGHT, stop, hard_deadline
            )
            writes = await writer if writer is not None else None
            if timer is not None:
                timer.cancel()
            server_cpu_s = server.cpu_seconds() - cpu_before
            stats_after = await client.stats()
            rss_mb = server.peak_rss_mb()
        finally:
            gc.enable()
            for open_client in (writer_client, client):
                if open_client is not None:
                    await open_client.close()
            await server.stop()
        return {
            "setup_s": setup_s,
            "base_version": base_version,
            "reads": reads,
            "writes": writes,
            "stats_before": stats_before,
            "stats_after": stats_after,
            "rss_mb": rss_mb,
            "server_cpu_s": server_cpu_s,
        }


def _quantile_ms(values: List[float], q: float) -> float:
    return 1e3 * percentile(sorted(values), q)


def _oracle(inputs, phases: List[dict]) -> int:
    """Check a seeded sample of every launch's answers; the mismatches."""
    from spec import subseed

    rng = random.Random(subseed(inputs.seed, "oracle"))
    mismatches = checked = versions = 0
    for raw in phases:
        samples = sample_answers(
            raw["reads"].answers, rng, ORACLE_ANSWERS // len(phases),
            ORACLE_VERSIONS,
        )
        acks = raw["writes"].acks if raw["writes"] is not None else []
        bad = check_answers(inputs.edges, raw["base_version"], acks, samples)
        for answer, truth in bad[:10]:
            print(f"  mismatch: {answer} (oracle says {truth})")
        mismatches += len(bad)
        checked += sum(len(group) for group in samples.values())
        versions += len(samples)
    print(f"oracle: {checked} answers at {versions} versions checked, "
          f"{mismatches} mismatches")
    return mismatches


def _figures(raw: dict) -> Dict[str, float]:
    """Every end-to-end figure of one launch, checked or reported only."""
    reads, writes = raw["reads"], raw["writes"]
    figures = {
        "setup_s": raw["setup_s"],
        "read_qps": len(reads.answers) / reads.wall_s,
        "read_p50_ms": _quantile_ms(reads.latencies, 0.50),
        "read_p99_ms": _quantile_ms(reads.latencies, 0.99),
        "read_p999_ms": _quantile_ms(reads.latencies, 0.999),
        "read_samples": len(reads.latencies),
        "server_peak_rss_mb": raw["rss_mb"],
        "server_cpu_us_per_read": 1e6 * raw["server_cpu_s"] / len(reads.answers),
        "client_cpu_frac": reads.cpu_s / reads.wall_s,
    }
    attempted, failed = reads.attempted, reads.failed
    if writes is not None:
        attempted += writes.attempted
        failed += writes.failed
        figures.update(
            update_qps=len(writes.acks) / writes.wall_s,
            update_p50_ms=_quantile_ms(writes.latencies, 0.50),
            update_p90_ms=_quantile_ms(writes.latencies, 0.90),
            update_samples=len(writes.latencies),
        )
    figures["attempted"] = attempted
    figures["failed"] = failed
    return figures


#: Figures summed over launches; every other figure is a median.
_SUMMED = ("read_samples", "update_samples", "attempted", "failed")


def _combine(phases: List[dict]) -> Dict[str, float]:
    """Per-launch figures folded into one run: medians, counts summed."""
    per_launch = [_figures(raw) for raw in phases]
    for k, figures in enumerate(per_launch):
        print(f"launch {k}: " + " ".join(
            f"{name}={figures[name]:.4g}"
            for name in ("setup_s", "read_qps", "read_p50_ms", "read_p99_ms",
                         "server_cpu_us_per_read")
        ))
    combined = {}
    for name in per_launch[0]:
        values = [figures[name] for figures in per_launch]
        combined[name] = (
            sum(values) if name in _SUMMED else statistics.median(values)
        )
    combined["failed_frac"] = combined["failed"] / combined["attempted"]
    return combined


def _via(phases: List[dict]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for raw in phases:
        for rung, count in raw["reads"].via.items():
            total[rung] = total.get(rung, 0) + count
    return total


def _print_figures(title: str, figures: Dict[str, float]) -> None:
    print(title)
    for name, value in figures.items():
        print(f"  {name:<26} {value:.6g}")


async def _run(args, workload, workdir: Path) -> dict:
    from spec import fingerprint, make_inputs

    launches = 2 * TRACE_PAIRS if args.trace else LAUNCHES
    inputs = make_inputs(
        workload, args.seed, str(workdir / "graph.txt"), launches
    )
    prints = fingerprint(inputs)
    print("fingerprint: " + json.dumps(prints, sort_keys=True))
    if args.trace:
        return await _traced(args, inputs, workdir)
    extra, launcher_flags = ABLATIONS.get(args.ablation, ([], []))
    launcher = None
    if args.ablation:
        launcher = [str(HERE / "tracehook.py"), *launcher_flags]
    session = Session(inputs, workdir, launcher=launcher, extra=extra)
    phases = [
        await session.measure(args.seconds / LAUNCHES) for _ in range(LAUNCHES)
    ]
    figures = _combine(phases)
    via = _via(phases)
    label = f"ablation={args.ablation}" if args.ablation else "checked run"
    _print_figures(
        f"{workload.name} seed={args.seed} {label} "
        f"(medians over {LAUNCHES} launches)",
        figures,
    )
    print("via: " + json.dumps(via, sort_keys=True))
    mismatches = _oracle(inputs, phases)
    if args.ablation:
        # Report-only: labelled, and never part of the checked metric set.
        return {
            "ablation": args.ablation,
            "workload": workload.name,
            "fingerprint": prints,
            "figures": figures,
            "via": via,
            "correct": mismatches == 0,
        }
    return {
        "correct": mismatches == 0,
        "attempted": int(figures["attempted"]),
        "failed": int(figures["failed"]),
        "metrics": {
            name: {"value": figures[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


async def _traced_launch(session: Session, seconds: float, spans_path: Path):
    """One traced launch: server spans via the launcher, client spans
    (wire decoding) recorded in this process."""
    from repro.net import protocol

    client_tracer = Tracer()
    client_tracer.patch(
        protocol, "outcome_from_wire",
        lambda fn: client_tracer.span("net.from_wire", fn),
    )
    try:
        raw = await session.measure(
            seconds,
            launcher=[str(HERE / "tracehook.py"), "--spans", str(spans_path)],
        )
    finally:
        client_tracer.unpatch()
    with open(spans_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    offset = 1 << 40  # keep client span ids apart from the server's
    client_spans = [
        (sid + offset, name, s0, s1, parent + offset if parent >= 0 else -1, x)
        for sid, name, s0, s1, parent, x in client_tracer.spans
    ]
    reads = raw["reads"]
    spans = SpanSet(dump["spans"] + client_spans, reads.start, reads.end)
    return raw, spans, dump["events"]


async def _traced(args, inputs, workdir: Path) -> dict:
    """Alternate untraced and traced launches; per-layer metrics are the
    medians over the traced ones, and the tracing overhead is measured
    from the two sides' median read rates."""
    session = Session(inputs, workdir)
    seconds = args.seconds / (2 * TRACE_PAIRS)
    plain, traced, layer_runs = [], [], []
    for pair in range(TRACE_PAIRS):
        plain.append(await session.measure(seconds))
        raw, spans, events = await _traced_launch(
            session, seconds, workdir / f"spans-{pair}.json"
        )
        traced.append(raw)
        layer_runs.append((raw, spans, events))
    title = f"{inputs.workload.name} seed={args.seed}"
    plain_figures = _combine(plain)
    _print_figures(f"{title} untraced", plain_figures)
    traced_figures = _combine(traced)
    _print_figures(f"{title} traced", traced_figures)
    overhead = 1.0 - traced_figures["read_qps"] / plain_figures["read_qps"]
    per_launch = []
    for raw, spans, events in layer_runs:
        reads = raw["reads"]
        metrics = per_layer_metrics(
            spans,
            events,
            window=(reads.start, reads.end),
            stats_before=raw["stats_before"],
            stats_after=raw["stats_after"],
            via=reads.via,
            client_cpu_frac=reads.cpu_s / reads.wall_s,
            overhead_frac=overhead,
        )
        per_launch.append(metrics)
        print(f"per-layer table, traced launch {len(per_launch)}:")
        print(layer_table(spans, metrics))
    metrics = {
        name: statistics.median(m[name] for m in per_launch) for name in PER_LAYER
    }
    _print_figures(f"{title} per-layer (median over traced launches)", metrics)
    mismatches = _oracle(inputs, plain + traced)
    return {
        "correct": mismatches == 0,
        "attempted": int(plain_figures["attempted"] + traced_figures["attempted"]),
        "failed": int(plain_figures["failed"] + traced_figures["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
