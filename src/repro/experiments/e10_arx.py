"""E10 — Arx: repair writes in the transaction logs leak the transcript.

Paper §6: "a snapshot of the system's persistent state will contain a
transcript of every range query made on the index because the write
corresponding to each read will be recorded in the transaction logs. ...
The index does not leak the frequencies of individual values, but
transaction logs do leak the frequencies of visits to each value in the
index. These frequencies can be used in combination with auxiliary data
about the distribution of queries to recover these values."

Protocol: build the Arx index, run a skewed range-query workload, capture a
**disk-theft** snapshot (persistent state only!), reconstruct the per-query
repair sets from redo/undo, and recover node values by frequency matching
against a model derived from the query distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..attacks import arx_frequency_attack, reconstruct_transcript
from ..attacks.arx_attack import infer_ancestry
from ..edb import ArxRangeEdb
from ..forensics import reconstruct_modifications
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture


@dataclass(frozen=True)
class ArxResult:
    """Transcript + value-recovery statistics."""

    num_values: int
    num_queries: int
    queries_reconstructed: int
    transcript_set_accuracy: float    # fraction of queries w/ exact node set
    root_identified: bool
    ancestry_precision: float         # inferred ancestor pairs that are real
    ancestry_recall: float            # real ancestor pairs inferred
    value_recovery_rate: float        # approximate (paper: "future work")
    mean_rank_error: float            # |recovered rank - true rank| / n


def _visit_frequency_model(
    values: Sequence[int], queries: Sequence[Tuple[int, int]]
) -> Dict[int, float]:
    """The attacker's model: expected visit frequency per candidate value.

    For a BST over ``values``, a range query visits a superset of the
    matched values; the attacker approximates visit frequency by match
    frequency under the (known or estimated) query distribution, smoothed
    so every candidate keeps nonzero mass.
    """
    counts = {v: 1.0 for v in values}
    for low, high in queries:
        for v in values:
            if low <= v <= high:
                counts[v] += 1.0
    total = sum(counts.values())
    return {v: c / total for v, c in counts.items()}


def run_arx_transcript(
    num_values: int = 30,
    num_queries: int = 60,
    query_span: int = 200,
    seed: int = 0,
) -> ArxResult:
    """Run the Arx workload and the two-stage snapshot attack."""
    rng = random.Random(seed)
    server = MySQLServer()
    session = server.connect("arx-client")
    edb = ArxRangeEdb(server, session, b"arx-e10-key-0123456789abcdef!!!!", seed=seed)

    values = rng.sample(range(1000), num_values)
    for value in values:
        edb.insert(value)

    # Skewed query workload around a hot center (realistic access locality).
    center = 500
    queries: List[Tuple[int, int]] = []
    for _ in range(num_queries):
        mid = int(rng.gauss(center, 150))
        span = rng.randint(10, query_span)
        low, high = mid - span // 2, mid + span // 2
        queries.append((low, high))
        edb.range_query(low, high)

    # --- attacker: persistent state only -------------------------------------
    snap = capture(server, AttackScenario.DISK_THEFT)
    events = reconstruct_modifications(
        snap.get("redo_log_raw"), snap.get("undo_log_raw")
    )
    reconstructed, root = reconstruct_transcript(events, table=edb.table)

    # Score transcript reconstruction against the client's ground truth.
    # Insert round trips are excluded by the attack itself (their batches
    # contain an index-row INSERT), so batches align 1:1 with queries.
    truth_sets = [set(q.visited_node_ids) for q in edb.query_log]
    recon_sets = [set(q.node_ids) for q in reconstructed]
    exact = sum(1 for a, b in zip(recon_sets, truth_sets) if a == b)

    # Structural leakage: ancestry inferred from batch co-occurrence.
    inferred_pairs = infer_ancestry(reconstructed)
    true_pairs = edb.ancestor_pairs()
    true_positive = len(inferred_pairs & true_pairs)
    ancestry_precision = true_positive / max(len(inferred_pairs), 1)
    ancestry_recall = true_positive / max(len(true_pairs), 1)

    model = _visit_frequency_model(values, queries)
    attack = arx_frequency_attack(events, model, table=edb.table)
    truth = {node_id: edb.node_value(node_id) for node_id in attack.visit_counts}
    recovery = attack.accuracy(truth)

    # Rank error: how far off each recovered value is in sorted order.
    sorted_values = sorted(values)
    rank_of = {v: i for i, v in enumerate(sorted_values)}
    rank_errors = [
        abs(rank_of[assigned] - rank_of[truth[node_id]]) / len(sorted_values)
        for node_id, assigned in attack.assignment.items()
        if node_id in truth and assigned in rank_of
    ]
    return ArxResult(
        num_values=num_values,
        num_queries=num_queries,
        queries_reconstructed=len(reconstructed),
        transcript_set_accuracy=exact / max(len(truth_sets), 1),
        root_identified=(root == edb.root_node_id),
        ancestry_precision=ancestry_precision,
        ancestry_recall=ancestry_recall,
        value_recovery_rate=recovery,
        mean_rank_error=sum(rank_errors) / max(len(rank_errors), 1),
    )
