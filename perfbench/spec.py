"""Workload definitions, seeded input generation and input fingerprints.

Every input the server sees is generated here from ``--seed`` with the
repository's own generators: the edge list (written to a file the server
loads), the read stream and, on ``churn``, the update stream. The same
seed always yields byte-identical inputs; :func:`fingerprint` hashes them
so two result records can be compared for "same inputs" at a glance.
"""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy

from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph.io import write_edge_list
from repro.workloads.mixed import INSERT, QUERY, generate_mixed_workload

Pair = Tuple[int, int]
#: ``("+" | "-", u, v)`` — one update as sent on the wire.
Update = Tuple[str, int, int]

#: Vertices and out-degree of every workload graph (``ext_net`` scale).
NUM_VERTICES = 20_000
OUT_DEGREE = 10
#: Distinct reads generated per run; the timed phase cycles through them.
READ_STREAM = 50_000
#: Updates per ``churn`` stream; a launch consumes a prefix of its stream.
UPDATE_STREAM = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Reverse-edge probability of the generator (0 = a DAG).
    reciprocal: float
    #: Rank-zipf endpoint skew of the reads (0 = the paper's uniform draw).
    skew: float
    #: Size of the repeated-pair pool, or ``None`` for independent pairs.
    pair_pool: Optional[int]
    #: Whether a closed-loop writer runs beside the readers.
    writes: bool
    #: Pause between the writer's reply and its next update.
    writer_think_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read-uniform",
            "uniform reads on a 20k-vertex graph with a giant SCC; the fast "
            "path decides nearly all, so the wire and the coalescer dominate",
            reciprocal=0.08,
            skew=0.0,
            pair_pool=None,
            writes=False,
        ),
        Workload(
            "read-dag-hot",
            "zipf reads over a 2000-pair pool on a 20k-vertex DAG; dedup, "
            "labels, cache and bit waves carry what the fast path leaves",
            reciprocal=0.0,
            skew=1.0,
            pair_pool=2000,
            writes=False,
        ),
        Workload(
            "churn",
            "read-uniform reads beside a journaled writer that waits 1 s "
            "after each update (30% deletes); DAG, label and CSR upkeep stall reads",
            reciprocal=0.08,
            skew=0.0,
            pair_pool=None,
            writes=True,
            writer_think_s=1.0,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the server, generated from the seed."""

    workload: Workload
    seed: int
    edges: List[Pair]
    reads: List[Pair]
    #: One independent update stream per server launch (empty lists
    #: for read-only workloads).
    updates: List[List[Update]]


def subseed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_inputs(
    workload: Workload, seed: int, graph_path: str, streams: int
) -> Inputs:
    """Generate the run's inputs and write the edge list to ``graph_path``.

    Every server launch starts from the same graph; ``streams`` independent
    update streams (one per launch) keep launches from replaying one
    update sequence.
    """
    graph = preferential_attachment_graph(
        NUM_VERTICES,
        out_degree=OUT_DEGREE,
        seed=subseed(seed, "graph"),
        reciprocal=workload.reciprocal,
    )
    write_edge_list(graph, graph_path)
    reads = [
        (op.u, op.v)
        for op in generate_mixed_workload(
            graph,
            READ_STREAM,
            query_ratio=1.0,
            skew=workload.skew,
            pair_pool=workload.pair_pool,
            seed=subseed(seed, "reads"),
        )
        if op.kind == QUERY
    ]
    updates: List[List[Update]] = [[] for _ in range(streams)]
    if workload.writes:
        updates = [
            [
                ("+" if op.kind == INSERT else "-", op.u, op.v)
                for op in generate_mixed_workload(
                    graph,
                    UPDATE_STREAM,
                    query_ratio=0.0,
                    seed=subseed(seed, f"updates-{k}"),
                )
            ]
            for k in range(streams)
        ]
    return Inputs(workload, seed, list(graph.edges()), reads, updates)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def fingerprint(inputs: Inputs) -> Dict[str, object]:
    """Host facts plus hashes of the generated inputs (for result records)."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": inputs.workload.name,
        "seed": inputs.seed,
        "edges_sha": _digest(sorted(inputs.edges)),
        "reads_sha": _digest(inputs.reads),
        "updates_sha": _digest(inputs.updates),
    }
