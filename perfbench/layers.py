"""Per-layer metrics from recorded spans, counter events and STATS frames.

Each layer metric is taken over the timed phase only: a span counts when
it starts inside the phase's window. Set-up spans (graph load, pruner and
label build) are taken from before the window. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

#: ``name -> unit`` of every per-layer metric, in report order. The
#: ``via.*`` shares come from the load generator's tally of
#: ``QueryOutcome.via``; the rest from spans, events and STATS deltas.
PER_LAYER: Dict[str, str] = {
    "net.waves": "count",
    "net.wave_pairs": "pairs",
    "net.encode_us": "us",
    "net.to_wire_us": "us",
    "net.from_wire_us": "us",
    "net.wire_share": "ratio",
    "client.cpu_frac": "ratio",
    "engine.batch_us": "us",
    "engine.read_wait_us": "us",
    "engine.read_wait_p99_us": "us",
    "engine.write_wait_us": "us",
    "engine.update_us": "us",
    "batcher.plan_us": "us",
    "batcher.dedup_frac": "ratio",
    "fastpath.checks": "count",
    "fastpath.hit_frac": "ratio",
    "fastpath.rebuilds": "count",
    "fastpath.rebuild_us": "us",
    "fastpath.apply_insert_us": "us",
    "fastpath.apply_delete_us": "us",
    "dag.insert_us": "us",
    "dag.insert_max_us": "us",
    "dag.delete_us": "us",
    "dag.delete_max_us": "us",
    "labels.pairs": "count",
    "labels.hit_frac": "ratio",
    "labels.filter_us_per_pair": "us",
    "labels.note_insert_us": "us",
    "labels.note_delete_us": "us",
    "labels.rebuilds": "count",
    "cache.gets": "count",
    "cache.hit_frac": "ratio",
    "cache.invalidations": "count",
    "bitsearch.waves": "count",
    "bitsearch.lanes_per_wave": "lanes",
    "bitsearch.wave_us": "us",
    "csr.freezes": "count",
    "csr.freeze_us": "us",
    "ifca.queries": "count",
    "ifca.query_us": "us",
    "journal.append_us": "us",
    "journal.fsyncs": "count",
    "setup.load_s": "s",
    "setup.pruner_s": "s",
    "setup.labels_s": "s",
    "via.fastpath": "ratio",
    "via.labels": "ratio",
    "via.cache": "ratio",
    "via.bitbatch": "ratio",
    "via.engine": "ratio",
    "via.degraded": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Table rows: layer, the span names whose self time it owns, the span
#: names that count as its waiting time.
LAYER_ROWS = (
    ("net", ("net.encode", "net.to_wire", "net.from_wire"), ()),
    ("service.engine", ("engine.query_batch", "engine.update"),
     ("engine.read_wait", "engine.write_wait")),
    ("service.batcher", ("batcher.plan",), ()),
    ("service.fastpath", ("fastpath.apply_insert", "fastpath.apply_delete",
                          "fastpath.rebuild"), ()),
    ("graph.dag", ("dag.insert", "dag.delete"), ()),
    ("graph.labels", ("labels.filter", "labels.note_insert",
                      "labels.note_delete"), ()),
    ("graph.bitsearch", ("bitsearch.wave",), ()),
    ("csr", ("csr.freeze",), ()),
    ("core", ("ifca.query",), ()),
    ("graph.journal", ("journal.append",), ()),
)

Span = Tuple[int, str, float, float, int, object]


class SpanSet:
    """Spans grouped by name, with self times, restricted to a window."""

    def __init__(self, spans: Sequence[Span], start: float, end: float) -> None:
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, s0, s1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += s1 - s0
        self.by_name: Dict[str, List[Tuple[float, float, object]]] = defaultdict(list)
        self.setup: Dict[str, float] = defaultdict(float)
        for sid, name, s0, s1, _, extra in spans:
            if s0 < start and name.startswith("setup."):
                self.setup[name] += s1 - s0
            elif start <= s0 <= end:
                duration = s1 - s0
                self_time = duration - child_time.get(sid, 0.0)
                self.by_name[name].append((duration, self_time, extra))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str, self_only: bool = False) -> float:
        col = 1 if self_only else 0
        return sum(row[col] for row in self.by_name.get(name, ()))

    def mean_us(self, name: str, self_only: bool = False) -> float:
        calls = self.calls(name)
        return 1e6 * self.total(name, self_only) / calls if calls else 0.0

    def max_us(self, name: str) -> float:
        rows = self.by_name.get(name, ())
        return 1e6 * max(row[0] for row in rows) if rows else 0.0

    def p99_us(self, name: str) -> float:
        durations = sorted(row[0] for row in self.by_name.get(name, ()))
        return 1e6 * percentile(durations, 0.99) if durations else 0.0

    def extras(self, name: str) -> list:
        return [row[2] for row in self.by_name.get(name, ())]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def _events(events, name: str, start: float, end: float) -> Tuple[int, int]:
    calls = hits = 0
    for ev_name, t, hit in events:
        if ev_name == name and start <= t <= end:
            calls += 1
            hits += hit
    return calls, hits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: SpanSet,
    events,
    *,
    window: Tuple[float, float],
    stats_before: dict,
    stats_after: dict,
    via: Dict[str, int],
    client_cpu_frac: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run."""
    start, end = window
    wall = end - start
    m: Dict[str, float] = {}

    batch_pairs = spans.extras("engine.query_batch")
    m["net.waves"] = len(batch_pairs)
    m["net.wave_pairs"] = _ratio(sum(batch_pairs), len(batch_pairs))
    m["net.encode_us"] = spans.mean_us("net.encode")
    m["net.to_wire_us"] = spans.mean_us("net.to_wire")
    m["net.from_wire_us"] = spans.mean_us("net.from_wire")
    m["net.wire_share"] = 1.0 - _ratio(spans.total("engine.query_batch"), wall)
    m["client.cpu_frac"] = client_cpu_frac

    m["engine.batch_us"] = spans.mean_us("engine.query_batch", self_only=True)
    m["engine.read_wait_us"] = spans.mean_us("engine.read_wait")
    m["engine.read_wait_p99_us"] = spans.p99_us("engine.read_wait")
    m["engine.write_wait_us"] = spans.mean_us("engine.write_wait")
    m["engine.update_us"] = spans.mean_us("engine.update")

    plans = spans.extras("batcher.plan")
    m["batcher.plan_us"] = spans.mean_us("batcher.plan", self_only=True)
    m["batcher.dedup_frac"] = _ratio(
        sum(p[1] for p in plans), sum(p[0] for p in plans)
    )

    checks, check_hits = _events(events, "fastpath.check", start, end)
    m["fastpath.checks"] = checks
    m["fastpath.hit_frac"] = _ratio(check_hits, checks)
    m["fastpath.rebuilds"] = spans.calls("fastpath.rebuild")
    m["fastpath.rebuild_us"] = spans.mean_us("fastpath.rebuild")
    m["fastpath.apply_insert_us"] = spans.mean_us("fastpath.apply_insert")
    m["fastpath.apply_delete_us"] = spans.mean_us("fastpath.apply_delete")

    m["dag.insert_us"] = spans.mean_us("dag.insert")
    m["dag.insert_max_us"] = spans.max_us("dag.insert")
    m["dag.delete_us"] = spans.mean_us("dag.delete")
    m["dag.delete_max_us"] = spans.max_us("dag.delete")

    filters = spans.extras("labels.filter")
    label_pairs = sum(f[0] for f in filters)
    m["labels.pairs"] = label_pairs
    m["labels.hit_frac"] = _ratio(sum(f[1] for f in filters), label_pairs)
    m["labels.filter_us_per_pair"] = _ratio(
        1e6 * spans.total("labels.filter"), label_pairs
    )
    m["labels.note_insert_us"] = spans.mean_us("labels.note_insert")
    m["labels.note_delete_us"] = spans.mean_us("labels.note_delete")
    m["labels.rebuilds"] = _counter_delta(
        stats_before, stats_after, "label_rebuilds"
    ) + _counter_delta(stats_before, stats_after, "label_partial_rebuilds")

    gets, get_hits = _events(events, "cache.get", start, end)
    m["cache.gets"] = gets
    m["cache.hit_frac"] = _ratio(get_hits, gets)
    m["cache.invalidations"] = _events(events, "cache.invalidate", start, end)[0]

    lanes = spans.extras("bitsearch.wave")
    m["bitsearch.waves"] = len(lanes)
    m["bitsearch.lanes_per_wave"] = _ratio(sum(lanes), len(lanes))
    m["bitsearch.wave_us"] = spans.mean_us("bitsearch.wave")
    m["csr.freezes"] = spans.calls("csr.freeze")
    m["csr.freeze_us"] = spans.mean_us("csr.freeze")

    m["ifca.queries"] = spans.calls("ifca.query")
    m["ifca.query_us"] = spans.mean_us("ifca.query")

    m["journal.append_us"] = spans.mean_us("journal.append")
    m["journal.fsyncs"] = _journal_syncs(stats_after) - _journal_syncs(
        stats_before
    )

    m["setup.load_s"] = spans.setup.get("setup.load", 0.0)
    m["setup.pruner_s"] = spans.setup.get("setup.pruner", 0.0)
    m["setup.labels_s"] = spans.setup.get("setup.labels", 0.0)

    m.update(via_shares(via))
    m["trace.overhead_frac"] = overhead_frac
    return m


def via_shares(via: Dict[str, int]) -> Dict[str, float]:
    """Answer share per ladder rung, from the client-side ``via`` tally."""
    total = sum(via.values())
    return {
        f"via.{rung}": _ratio(via.get(rung, 0), total)
        for rung in ("fastpath", "labels", "cache", "bitbatch", "engine",
                     "degraded")
    }


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after["stats"]["counters"].get(name, 0)) - int(
        before["stats"]["counters"].get(name, 0)
    )


def _journal_syncs(frame: dict) -> int:
    return int(frame["stats"].get("journal", {}).get("sync_count", 0))


def layer_table(spans: SpanSet, metrics: Dict[str, float]) -> str:
    """The human-readable per-layer table: calls, self and wait time, and
    the useful/attempted ratio where the layer can waste work."""
    useful = {
        "service.batcher": 1.0 - metrics["batcher.dedup_frac"],
        "service.fastpath": metrics["fastpath.hit_frac"],
        "graph.labels": metrics["labels.hit_frac"],
        "graph.bitsearch": metrics["bitsearch.lanes_per_wave"] / 64.0,
    }
    lines = [
        f"{'layer':<18}{'calls':>9}{'self_ms':>12}{'wait_ms':>12}"
        f"{'useful/attempted':>18}"
    ]
    # Per-pair checks are counter events, not spans; count them as calls.
    counted = {"service.fastpath": metrics["fastpath.checks"]}
    for layer, names, waits in LAYER_ROWS:
        calls = sum(spans.calls(n) for n in names) + counted.get(layer, 0)
        self_ms = 1e3 * sum(spans.total(n, self_only=True) for n in names)
        wait_ms = 1e3 * sum(spans.total(n) for n in waits)
        ratio = f"{useful[layer]:.3f}" if layer in useful else "-"
        lines.append(
            f"{layer:<18}{calls:>9}{self_ms:>12.1f}{wait_ms:>12.1f}{ratio:>18}"
        )
    gets = metrics["cache.gets"]
    lines.append(
        f"{'service.cache':<18}{gets:>9}{'-':>12}{'-':>12}"
        f"{metrics['cache.hit_frac']:>18.3f}"
    )
    return "\n".join(lines)
