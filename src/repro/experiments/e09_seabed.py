"""E9 — Seabed / SPLASHE: the digest-histogram side channel (paper §6).

Protocol:

1. Build a Seabed-protected table whose filter column is SPLASHE-splayed.
2. The victim runs count queries with a Zipf-skewed value distribution;
   each rewritten query names the per-plaintext indicator column.
3. The snapshot attacker reads ``events_statements_summary_by_digest``
   (available via SQL injection or any memory-level access), obtains the
   exact per-column query histogram, and runs frequency analysis
   (the Lacharité-Paterson MLE rank matching) with an auxiliary query
   model to map indicator columns back to plaintext values.

Scored: exactness of the leaked histogram, column->plaintext recovery rate,
and (weighted) fraction of queries whose target value is revealed. The
``model_noise`` knob degrades the attacker's auxiliary model for the
ablation.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict

from ..attacks import frequency_analysis
from ..edb import SeabedEdb
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture
from ..workloads import zipf_frequencies, zipf_point_queries


@dataclass(frozen=True)
class SeabedResult:
    """SPLASHE frequency-analysis outcome."""

    domain_size: int
    num_queries: int
    histogram_exact: bool
    recovery_rate: float
    weighted_recovery_rate: float
    model_noise: float


def run_seabed_splashe(
    domain_size: int = 20,
    rows_per_value: int = 3,
    num_queries: int = 400,
    zipf_s: float = 1.0,
    model_noise: float = 0.0,
    seed: int = 0,
) -> SeabedResult:
    """Run the SPLASHE pipeline and the frequency-analysis recovery."""
    rng = random.Random(seed)
    domain = [100 + i for i in range(domain_size)]
    server = MySQLServer()
    session = server.connect("analyst")
    edb = SeabedEdb(
        server,
        session,
        b"seabed-e9-key-0123456789abcdef!!",
        category_domain=domain,
    )
    for value in domain:
        for _ in range(rows_per_value):
            edb.insert(join_key=value, metric=1, category=value)

    # Victim workload: skewed count queries.
    targets = zipf_point_queries(domain, num_queries, s=zipf_s, seed=seed)
    true_query_counts = Counter(targets)
    for value in targets:
        edb.count_where_category(value)

    # --- attacker -------------------------------------------------------------
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    digest_histogram: Dict[str, int] = {}
    column_of_digest: Dict[str, str] = {}
    pattern = re.compile(r"ASHE_SUM ?\( ?(c\d+) ?\)")
    for summary in snap.require("digest_summaries"):
        match = pattern.search(summary.digest_text)
        if match:
            digest_histogram[summary.digest_text] = summary.count_star
            column_of_digest[summary.digest_text] = match.group(1)

    # Ground truth: which indicator column corresponds to which value.
    column_truth = {edb.splashe_column_for(v): v for v in domain}
    observed_by_column = {
        column_of_digest[text]: count for text, count in digest_histogram.items()
    }
    histogram_exact = all(
        observed_by_column.get(edb.splashe_column_for(v), 0)
        == true_query_counts.get(v, 0)
        for v in domain
    )

    # Auxiliary model of the query distribution, optionally degraded.
    model = zipf_frequencies(domain, s=zipf_s)
    if model_noise > 0:
        noisy = {
            v: max(1e-9, p * rng.uniform(1 - model_noise, 1 + model_noise))
            for v, p in model.items()
        }
        total = sum(noisy.values())
        model = {v: p / total for v, p in noisy.items()}

    attack = frequency_analysis(observed_by_column, model)
    truth = {column: value for column, value in column_truth.items()}
    recovery = attack.accuracy(
        {c: truth[c] for c in observed_by_column if c in truth}
    )
    weighted = attack.weighted_accuracy(
        {c: truth[c] for c in observed_by_column if c in truth},
        observed_by_column,
    )
    return SeabedResult(
        domain_size=domain_size,
        num_queries=num_queries,
        histogram_exact=histogram_exact,
        recovery_rate=recovery,
        weighted_recovery_rate=weighted,
        model_noise=model_noise,
    )
