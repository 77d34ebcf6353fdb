"""Span recording around the public calls of each serving layer.

Run as a launcher, it wraps the calls listed in :data:`SERVER_HOOKS`,
then hands its remaining arguments to the CLI's own entry point::

    python perfbench/tracehook.py --spans OUT.json -- serve GRAPH --port 0

Spans (id, name, start, end, parent span, extra) and per-pair counter
events are kept in memory and written to ``OUT.json`` on SIGTERM (or
when the command returns). Nothing under ``src/`` changes: every hook
replaces a module or class attribute before the service is built.

Without ``--spans`` the launcher records nothing. Ablation runs use it
for ``--no-labels`` (the one change ``serve`` has no flag for) and for a
clean shutdown on SIGTERM.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so server and load-generator spans share one
time axis.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

ExtraFn = Optional[Callable[[tuple, Any], Any]]


class Tracer:
    """In-memory span and counter-event recorder (thread-safe appends)."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        #: ``(id, name, start, end, parent_id, extra)``; parent -1 = root.
        self.spans: List[Tuple[int, str, float, float, int, Any]] = []
        #: ``(name, time, hit)`` for calls too frequent to wrap in spans.
        self.events: List[Tuple[str, float, bool]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, extra: ExtraFn = None) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        ids, spans, stack_of = self._ids, self.spans, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append(
                (sid, name, start, end, parent,
                 extra(args, result) if extra else None)
            )
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a counter event whose
        ``hit`` flag says whether it returned something other than None."""
        events = self.events

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append((name, perf_counter(), result is not None))
            return result

        return counted

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)``."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper(original))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        # Copies, because server threads may still be appending.
        spans, events = list(self.spans), list(self.events)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "events": events}, handle)


def _nonzero(args, verdicts) -> Tuple[int, int]:
    if verdicts is None:
        return (len(args[1]), 0)
    return (len(args[1]), int((verdicts != 0).sum()))


#: ``(module, class or None, attribute, kind, span name, extra)`` for every
#: server-side hook. ``kind`` is ``span``, ``count`` or ``static-span``
#: (a classmethod, rebound as a static wrapper around the bound original).
SERVER_HOOKS = (
    ("repro.cli", None, "read_edge_list", "span", "setup.load", None),
    ("repro.net.protocol", None, "encode", "span", "net.encode", None),
    ("repro.net.protocol", None, "outcome_to_wire", "span", "net.to_wire", None),
    ("repro.service.engine", "ReachabilityService", "query_batch", "span",
     "engine.query_batch", lambda a, r: len(a[1])),
    ("repro.service.engine", "ReachabilityService", "add_edge", "span",
     "engine.update", None),
    ("repro.service.engine", "ReachabilityService", "remove_edge", "span",
     "engine.update", None),
    ("repro.service.concurrency", "RWLock", "acquire_read", "span",
     "engine.read_wait", None),
    ("repro.service.concurrency", "RWLock", "acquire_write", "span",
     "engine.write_wait", None),
    ("repro.service.engine", None, "plan_batch", "span", "batcher.plan",
     lambda a, r: (len(a[0]), r.dedup_saved)),
    ("repro.service.fastpath", "FastPathPruner", "__init__", "span",
     "setup.pruner", None),
    ("repro.service.fastpath", "FastPathPruner", "check", "count",
     "fastpath.check", None),
    ("repro.service.fastpath", "FastPathPruner", "rebuild_samples", "span",
     "fastpath.rebuild", None),
    ("repro.service.fastpath", "FastPathPruner", "apply_insert", "span",
     "fastpath.apply_insert", None),
    ("repro.service.fastpath", "FastPathPruner", "apply_delete", "span",
     "fastpath.apply_delete", None),
    ("repro.graph.dag", "DynamicDAG", "insert_edge", "span", "dag.insert", None),
    ("repro.graph.dag", "DynamicDAG", "delete_edge", "span", "dag.delete", None),
    ("repro.graph.labels", "LabelIndex", "__init__", "span", "setup.labels", None),
    ("repro.graph.labels", "LabelIndex", "filter_pairs", "span",
     "labels.filter", _nonzero),
    ("repro.graph.labels", "LabelIndex", "note_insert", "span",
     "labels.note_insert", None),
    ("repro.graph.labels", "LabelIndex", "note_delete", "span",
     "labels.note_delete", None),
    ("repro.service.cache", "VersionedQueryCache", "get", "count",
     "cache.get", None),
    ("repro.service.cache", "VersionedQueryCache", "note_update", "count",
     "cache.invalidate", None),
    ("repro.service.engine", None, "csr_bit_bibfs", "span", "bitsearch.wave",
     lambda a, r: r[1].lanes),
    ("repro.graph.snapshot", "CSRSnapshot", "freeze", "static-span",
     "csr.freeze", None),
    ("repro.core.ifca", "IFCA", "query_with_stats", "span", "ifca.query", None),
    ("repro.graph.journal", "UpdateJournal", "record_insert", "span",
     "journal.append", None),
    ("repro.graph.journal", "UpdateJournal", "record_delete", "span",
     "journal.append", None),
)


def install(tracer: Tracer, hooks=SERVER_HOOKS) -> None:
    for module_name, class_name, attr, kind, name, extra in hooks:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if kind == "count":
            tracer.patch(owner, attr, lambda fn, n=name: tracer.count(n, fn))
        elif kind == "static-span":
            tracer.patch(
                owner, attr,
                lambda fn, n=name: staticmethod(tracer.span(n, fn)),
            )
        else:
            tracer.patch(
                owner, attr, lambda fn, n=name, x=extra: tracer.span(n, fn, x)
            )


def _labels_off() -> None:
    """Build every service with ``use_labels=False`` (a public argument)."""
    from repro.service.engine import ReachabilityService

    original = ReachabilityService.__init__

    def init(self, *args, **kwargs):
        kwargs.setdefault("use_labels", False)
        original(self, *args, **kwargs)

    ReachabilityService.__init__ = init


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", help="write spans here at exit (traces)")
    parser.add_argument("--no-labels", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import cli

    if args.no_labels:
        _labels_off()
    tracer = Tracer() if args.spans else None
    if tracer is None:
        # SIGTERM raises KeyboardInterrupt, which ``serve`` treats as a
        # clean shutdown: the service closes and a shard fleet unlinks
        # its shared-memory segments.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        return cli.main(cli_args)
    install(tracer)

    def dump_and_exit(signum, frame):
        # Write the spans straight away: a traced server has no fleet to
        # release, and the write must not depend on the shutdown path.
        tracer.dump(args.spans)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
