#!/usr/bin/env python
"""Seabed/SPLASHE: the performance-schema histogram breaks frequency hiding.

Paper Section 6: SPLASHE stores semantically secure indicator columns — the
table itself carries no histogram — but every rewritten count query names a
per-plaintext column, so ``events_statements_summary_by_digest`` accumulates
the exact query histogram per plaintext, and rank-matching frequency
analysis (the Lacharité-Paterson MLE) maps columns back to values.

Run: ``python examples/seabed_frequency_attack.py``
"""

import re
from collections import Counter

from repro import AttackScenario, MySQLServer, capture
from repro.attacks import frequency_analysis
from repro.edb import SeabedEdb
from repro.workloads import zipf_frequencies, zipf_point_queries


def main() -> None:
    print("== a Seabed-protected analytics table ==")
    departments = list(range(1, 13))  # the filter column's domain
    server = MySQLServer()
    session = server.connect("analyst")
    edb = SeabedEdb(
        server,
        session,
        b"seabed-demo-key-0123456789abcdef",
        category_domain=departments,
    )
    for dept in departments:
        for i in range(3):
            edb.insert(join_key=dept, metric=10 * dept + i, category=dept)
    print(f"stored {len(departments) * 3} rows; filter column SPLASHE-splayed")

    print("\n== the analyst's (skewed) count-query workload ==")
    targets = zipf_point_queries(departments, 600, s=1.1, seed=2)
    for dept in targets:
        edb.count_where_category(dept)
    true_counts = Counter(targets)
    print(f"issued 600 count queries; most popular: dept {true_counts.most_common(1)[0]}")

    print("\n== snapshot attacker reads the digest table ==")
    snapshot = capture(server, AttackScenario.SQL_INJECTION)  # injection suffices!
    pattern = re.compile(r"ASHE_SUM ?\( ?(c\d+) ?\)")
    observed = {}
    for summary in snapshot.require("digest_summaries"):
        match = pattern.search(summary.digest_text)
        if match:
            observed[match.group(1)] = summary.count_star
    print(f"per-indicator-column query histogram leaked: {len(observed)} columns")

    print("\n== frequency analysis with a Zipf query model ==")
    model = zipf_frequencies(departments, s=1.1)
    attack = frequency_analysis(observed, model)
    truth = {edb.splashe_column_for(d): d for d in departments}
    correct = sum(
        1 for col, dept in attack.assignment.items() if truth.get(col) == dept
    )
    print(f"columns mapped back to departments: {correct}/{len(observed)} correct")
    for col, dept in sorted(attack.assignment.items())[:5]:
        marker = "OK " if truth.get(col) == dept else "WRONG"
        print(f"  column {col} => department {dept}  [{marker}]")

    print(
        "\n=> every future 'WHERE dept = X' count query is now readable, and"
        "\n   with enhanced SPLASHE the same analysis reveals per-row values."
    )


if __name__ == "__main__":
    main()
