"""Snapshot attack on the Arx-style range index (paper §6).

Two stages:

1. :func:`reconstruct_transcript` — from the transaction logs (redo/undo of
   the ``arx_index`` table), recover the per-query sets of repaired nodes.
   Every range query visits (and therefore repairs) the treap root, so the
   attacker splits the repair stream at updates of the most-frequently
   updated node — which identifies the root at the same time.
2. :func:`arx_frequency_attack` — node repair frequencies, combined with an
   auxiliary model of the query distribution, feed the rank-matching /
   bipartite-matching machinery to recover node plaintexts. "The index does
   not leak the frequencies of individual values, but transaction logs do
   leak the frequencies of visits to each value in the index."
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import AttackError
from ..forensics.redo_undo import ModificationEvent
from .frequency import frequency_analysis
from .matching import matching_attack


@dataclass(frozen=True)
class ReconstructedQuery:
    """One inferred range query: the node set its repairs touched."""

    node_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ArxAttackResult:
    """Recovered node-id -> value assignment plus supporting statistics."""

    assignment: Dict[int, int]
    visit_counts: Dict[int, int]
    inferred_root: Optional[int]

    def accuracy(self, ground_truth: Mapping[int, int]) -> float:
        if not ground_truth:
            raise AttackError("empty ground truth")
        correct = sum(
            1
            for node_id, value in self.assignment.items()
            if ground_truth.get(node_id) == value
        )
        return correct / len(ground_truth)


def reconstruct_transcript(
    events: Sequence[ModificationEvent], table: str = "arx_index"
) -> Tuple[List[ReconstructedQuery], Optional[int]]:
    """Split the repair stream into per-query node sets.

    Each Arx round trip commits its repairs as one transaction, so log
    records group by ``txn_id``. Pure repair batches (updates only, no
    insert on the index table) are range queries; batches containing an
    index-row insert are value insertions and are excluded.

    The treap root is then identified as the node present in the most query
    batches — every traversal starts at the root. Returns the inferred
    queries (in log order) and the inferred root node id.
    """
    by_txn: "dict[int, List[ModificationEvent]]" = {}
    order: List[int] = []
    for event in events:
        if event.table != table:
            continue
        if event.txn_id not in by_txn:
            by_txn[event.txn_id] = []
            order.append(event.txn_id)
        by_txn[event.txn_id].append(event)

    queries: List[ReconstructedQuery] = []
    for txn_id in order:
        batch = by_txn[txn_id]
        if any(e.op == "insert" for e in batch):
            continue  # an index insertion round trip, not a query
        updates = [e.key for e in batch if e.op == "update"]
        if updates:
            queries.append(ReconstructedQuery(node_ids=tuple(updates)))
    if not queries:
        return [], None
    presence = Counter()
    for query in queries:
        for node_id in set(query.node_ids):
            presence[node_id] += 1
    root = presence.most_common(1)[0][0]
    return queries, root


def infer_ancestry(
    queries: Sequence[ReconstructedQuery],
) -> set:
    """Infer treap ancestry from batch co-occurrence.

    A traversal that visits node ``B`` must have passed through every
    ancestor of ``B``, so: ``A`` is inferred to be an ancestor of ``B`` when
    every reconstructed batch containing ``B`` also contains ``A`` (and
    ``A`` occurs in strictly more batches). With enough queries this
    recovers the tree's ancestor relation from nothing but transaction-log
    write sets — structural leakage on top of the frequencies.
    """
    batches_of: Dict[int, set] = {}
    for index, query in enumerate(queries):
        for node_id in set(query.node_ids):
            batches_of.setdefault(node_id, set()).add(index)
    pairs = set()
    for a, batches_a in batches_of.items():
        for b, batches_b in batches_of.items():
            if a == b:
                continue
            if batches_b < batches_a:  # proper subset -> A above B
                pairs.add((a, b))
    return pairs


def arx_frequency_attack(
    events: Sequence[ModificationEvent],
    value_candidates: Mapping[int, float],
    table: str = "arx_index",
    use_matching: bool = True,
) -> ArxAttackResult:
    """Recover node values from repair frequencies + an auxiliary model.

    ``value_candidates`` maps each candidate plaintext value to its expected
    *visit* frequency under the attacker's model of the query distribution
    (for uniform range queries, central values are visited more often —
    the treap shape modulates this, which is why recovery is approximate).
    """
    queries, root = reconstruct_transcript(events, table)
    if not queries:
        raise AttackError(f"no repair batches for table {table!r}")
    visit_counts: Dict[int, int] = dict(
        Counter(node_id for q in queries for node_id in q.node_ids)
    )

    if use_matching and len(value_candidates) >= len(visit_counts):
        result = matching_attack(visit_counts, dict(value_candidates))
        assignment = {int(k): int(v) for k, v in result.assignment.items()}
    else:
        result = frequency_analysis(visit_counts, dict(value_candidates))
        assignment = {int(k): int(v) for k, v in result.assignment.items()}
    return ArxAttackResult(
        assignment=assignment,
        visit_counts=visit_counts,
        inferred_root=root,
    )
