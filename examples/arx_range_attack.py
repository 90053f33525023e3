#!/usr/bin/env python
"""Arx: repair-on-read turns the transaction logs into a query transcript.

Paper Section 6: after each Arx range query the visited treap nodes are
"consumed" and repaired by fresh client encryptions — writes that land in
the redo/undo logs. A disk-theft snapshot therefore contains a transcript of
every range query, node visit frequencies, and (via co-occurrence) the
index's tree structure.

Run: ``python examples/arx_range_attack.py``
"""

import random

from repro import AttackScenario, MySQLServer, capture
from repro.attacks import arx_frequency_attack, reconstruct_transcript
from repro.attacks.arx_attack import infer_ancestry
from repro.edb import ArxRangeEdb
from repro.forensics import reconstruct_modifications


def main() -> None:
    rng = random.Random(3)
    server = MySQLServer()
    session = server.connect("arx-client")
    edb = ArxRangeEdb(server, session, b"arx-demo-key-0123456789abcdef!!!", seed=3)

    print("== an encrypted salary index (semantically secure node values) ==")
    salaries = rng.sample(range(40_000, 200_000), 25)
    for salary in salaries:
        edb.insert(salary)
    print(f"indexed {len(salaries)} encrypted salaries")

    print("\n== the application runs range queries ==")
    for _ in range(50):
        low = rng.randrange(40_000, 180_000)
        edb.range_query(low, low + rng.randrange(5_000, 40_000))
    print("issued 50 encrypted range queries")

    print("\n== the attacker steals the disk ==")
    snapshot = capture(server, AttackScenario.DISK_THEFT)
    events = reconstruct_modifications(
        snapshot.get("redo_log_raw"), snapshot.get("undo_log_raw")
    )
    queries, root = reconstruct_transcript(events, table=edb.table)
    print(f"range queries reconstructed from repair writes: {len(queries)}")
    print(f"inferred treap root node: {root} (true root: {edb.root_node_id})")

    pairs = infer_ancestry(queries)
    true_pairs = edb.ancestor_pairs()
    precision = len(pairs & true_pairs) / max(len(pairs), 1)
    print(
        f"tree ancestry inferred from co-occurrence: {len(pairs)} pairs, "
        f"{precision:.0%} correct"
    )

    print("\n== frequency attack on node values ==")
    model = {}
    for value in range(40_000, 200_001, 5_000):
        # The attacker's auxiliary model: how often a candidate value falls
        # inside a typical query window (centered salaries are hotter).
        model[value] = 1.0
    # Weight by overlap with the (publicly guessable) query span profile.
    attack = arx_frequency_attack(events, model, table=edb.table)
    hottest = max(attack.visit_counts, key=attack.visit_counts.get)
    print(
        f"hottest node {hottest} repaired {attack.visit_counts[hottest]} times "
        f"(true value {edb.node_value(hottest):,})"
    )
    print(
        "=> the logs leak visit frequencies and rank information; combined"
        "\n   with auxiliary data these recover index values (paper: attack"
        "\n   development left to future work - see benchmarks/bench_e10)."
    )


if __name__ == "__main__":
    main()
