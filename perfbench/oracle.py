"""A BFS oracle that checks answers at the graph version they report.

Every wire answer carries the graph version that produced it. The oracle
starts from the generated edge list, replays the acknowledged update
prefix up to each sampled version, and runs a plain breadth-first search
over its own CSR arrays. It shares no code with the server's search
paths, so a bug there cannot hide behind the same bug here.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

Pair = Tuple[int, int]
#: ``(source, target, answer, version)``
Answer = Tuple[int, int, bool, int]
#: ``(op, u, v, version)`` — one acknowledged update.
Ack = Tuple[str, int, int, int]


def _csr(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR arrays from sorted edge keys ``u * n + v``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def reachable_from(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Boolean mask of every vertex reachable from ``source`` (BFS)."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        nbrs = indices[offsets + np.arange(total)]
        nbrs = np.unique(nbrs[~seen[nbrs]])
        seen[nbrs] = True
        frontier = nbrs
    return seen


def sample_answers(
    answers: Sequence[Answer], rng: random.Random, total: int, versions: int
) -> Dict[int, List[Answer]]:
    """Up to ``versions`` distinct versions and about ``total`` answers,
    spread evenly over the versions."""
    by_version: Dict[int, List[Answer]] = defaultdict(list)
    for answer in answers:
        by_version[answer[3]].append(answer)
    chosen = sorted(by_version)
    if len(chosen) > versions:
        chosen = sorted(rng.sample(chosen, versions))
    per_version = max(1, total // max(1, len(chosen)))
    picked = {}
    for version in chosen:
        pool = by_version[version]
        picked[version] = (
            rng.sample(pool, per_version) if len(pool) > per_version else pool
        )
    return picked


def check_answers(
    edges: Sequence[Pair],
    base_version: int,
    acks: Sequence[Ack],
    samples: Dict[int, List[Answer]],
) -> List[Tuple[Answer, bool]]:
    """Every sampled answer the oracle disagrees with, with its truth.

    ``acks`` must be in version order, as a single closed-loop writer
    produces them. A sampled version below ``base_version`` or above the
    last acknowledged one is itself a mismatch (the server reported a
    state it never had).
    """
    n = 1 + max(max(u, v) for u, v in edges)
    for _, u, v, _ in acks:
        n = max(n, u + 1, v + 1)
    base = np.unique(np.array([u * n + v for u, v in edges], dtype=np.int64))
    last = acks[-1][3] if acks else base_version
    mismatches: List[Tuple[Answer, bool]] = []
    # Net change of the replayed update prefix against the base graph.
    added: Set[int] = set()
    removed: Set[int] = set()
    applied = 0
    for version in sorted(samples):
        if version < base_version or version > last:
            mismatches.extend((a, not a[2]) for a in samples[version])
            continue
        while applied < len(acks) and acks[applied][3] <= version:
            op, u, v, _ = acks[applied]
            applied += 1
            key = u * n + v
            if op == "+":
                if key in removed:
                    removed.discard(key)
                else:
                    added.add(key)
            elif key in added:
                added.discard(key)
            else:
                removed.add(key)
        keys = base
        if removed:
            keys = keys[~np.isin(keys, np.fromiter(removed, np.int64))]
        if added:
            keys = np.union1d(keys, np.fromiter(added, np.int64))
        indptr, indices = _csr(keys, n)
        by_source: Dict[int, List[Answer]] = defaultdict(list)
        for answer in samples[version]:
            by_source[answer[0]].append(answer)
        for source, group in by_source.items():
            seen = reachable_from(indptr, indices, source)
            for answer in group:
                truth = bool(seen[answer[1]])
                if truth != answer[2]:
                    mismatches.append((answer, truth))
    return mismatches
