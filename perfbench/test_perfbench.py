"""Checks of the benchmark's own machinery (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import SpanSet, percentile  # noqa: E402
from oracle import check_answers, sample_answers  # noqa: E402
from spec import WORKLOADS, fingerprint, make_inputs  # noqa: E402


def _prints(workload: str, seed: int, tmp_path: Path) -> dict:
    inputs = make_inputs(
        WORKLOADS[workload], seed, str(tmp_path / f"{workload}-{seed}.txt"), 2
    )
    return fingerprint(inputs)


def test_same_seed_same_fingerprint_other_seed_differs(tmp_path):
    first = _prints("churn", 7, tmp_path)
    again = _prints("churn", 7, tmp_path)
    other = _prints("churn", 8, tmp_path)
    assert first == again
    for key in ("edges_sha", "reads_sha", "updates_sha"):
        assert first[key] != other[key]
    assert first["cpu_count"] >= 1 and first["python"] and first["numpy"]


def test_read_workloads_share_nothing_but_the_generator(tmp_path):
    uniform = _prints("read-uniform", 3, tmp_path)
    churn = _prints("churn", 3, tmp_path)
    dag = _prints("read-dag-hot", 3, tmp_path)
    # churn replays read-uniform's graph and reads, plus an update stream
    assert uniform["edges_sha"] == churn["edges_sha"]
    assert uniform["reads_sha"] == churn["reads_sha"]
    assert uniform["updates_sha"] != churn["updates_sha"]
    assert dag["edges_sha"] != uniform["edges_sha"]


def test_oracle_replays_the_update_prefix_of_each_version():
    edges = [(0, 1), (1, 2)]
    acks = [("-", 1, 2, 11), ("+", 2, 0, 12)]
    answers = {
        10: [(0, 2, True, 10), (2, 0, False, 10)],
        11: [(0, 2, False, 11)],
        12: [(2, 1, True, 12), (0, 2, True, 12)],  # second one is wrong
        13: [(0, 1, True, 13)],  # a version the server never had
    }
    bad = check_answers(edges, 10, acks, answers)
    assert bad == [((0, 2, True, 12), False), ((0, 1, True, 13), False)]


def test_oracle_sample_is_seeded_and_spread_over_versions():
    answers = [(i, i + 1, True, i % 40) for i in range(4000)]
    first = sample_answers(answers, random.Random(5), 64, 16)
    again = sample_answers(answers, random.Random(5), 64, 16)
    assert first == again
    assert len(first) == 16 and all(len(g) == 4 for g in first.values())


def test_self_time_subtracts_children_inside_the_window():
    spans = [
        (0, "setup.load", 0.0, 1.0, -1, None),
        (1, "engine.query_batch", 2.0, 2.010, -1, 4),
        (2, "batcher.plan", 2.001, 2.004, 1, (4, 1)),
        (3, "engine.read_wait", 2.0, 2.001, 1, None),
        (4, "engine.query_batch", 9.0, 9.5, -1, 4),  # after the window
    ]
    spans_set = SpanSet(spans, 1.5, 5.0)
    assert spans_set.calls("engine.query_batch") == 1
    assert abs(spans_set.mean_us("engine.query_batch", self_only=True) - 6000) < 1e-6
    assert spans_set.setup["setup.load"] == 1.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
