"""E7 — count-based leakage-abuse against token-based SSE (paper §6).

Protocol:

1. Build the searchable EDB over the synthetic (Enron-stand-in) corpus.
2. A victim client searches for a set of keywords; every search statement
   (containing the derived tag) flows through the real server.
3. The snapshot attacker carves the tags out of the memory dump, replays
   each against the encrypted table (the semantic-security break), and runs
   the count attack with the auxiliary keyword-count model.

Scored: the corpus's unique-count fraction (the paper's 63% statistic, at
our scale — see :func:`repro.workloads.generate_corpus`), the keyword
recovery rate, and partial document recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..attacks import count_attack
from ..attacks.count_attack import document_recovery
from ..edb import SearchableEdb
from ..forensics.memory_scan import scan_for_tokens
from ..server import MySQLServer, ServerConfig
from ..snapshot import AttackScenario, capture
from ..workloads import generate_corpus


@dataclass(frozen=True)
class SseCountResult:
    """Count-attack outcome."""

    num_documents: int
    top_k: int
    unique_count_fraction: float
    paper_unique_fraction: float
    tokens_observed: int
    tokens_carved_from_memory: int
    keywords_recovered: int
    recovery_rate: float
    unique_count_searches: int
    unique_count_recovery_rate: float
    documents_with_recovered_content: int


def run_sse_count_attack(
    num_documents: int = 400,
    vocabulary_size: int = 120,
    top_k: int = 60,
    num_searches: int = 25,
    seed: int = 0,
    config: Optional[ServerConfig] = None,
) -> SseCountResult:
    """Run the full pipeline: EDB -> searches -> snapshot -> count attack.

    The defaults keep the server-side document load moderate (each document
    is an INSERT through the full SQL path); the unique-count *statistic* is
    additionally reported by the benchmark at the calibrated 16k-document
    corpus scale.
    """
    rng = random.Random(seed)
    corpus = generate_corpus(
        num_documents=num_documents, vocabulary_size=vocabulary_size, seed=seed
    )
    server = MySQLServer(config)
    session = server.connect("edb-client")
    edb = SearchableEdb(server, session, b"sse-experiment-key-0123456789ab!")
    for doc in corpus.documents:
        edb.insert_document(doc.doc_id, doc.keywords, doc.body)

    # Victim searches: keywords drawn from the frequent set.
    top_keywords = corpus.top_keywords(top_k)
    searched = rng.sample(top_keywords, min(num_searches, len(top_keywords)))
    tag_to_keyword: Dict[str, str] = {}
    for keyword in searched:
        result = edb.search(keyword)
        tag_to_keyword[result.tag_hex] = keyword

    # --- the attacker's side -------------------------------------------------
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    dump = snap.require("memory_dump")
    carved_hexes = {hexstr for _, hexstr in scan_for_tokens(dump, min_hex_length=64)}
    # Tags are 64 hex chars; longer carved runs may embed them.
    carved_tags = set()
    for hexstr in carved_hexes:
        for offset in range(0, len(hexstr) - 63):
            candidate = hexstr[offset : offset + 64]
            if candidate in tag_to_keyword:
                carved_tags.add(candidate)

    observed_counts = {
        tag: len(edb.replay_tag(tag)) for tag in sorted(carved_tags)
    }
    access_pattern = {tag: edb.replay_tag(tag) for tag in sorted(carved_tags)}
    auxiliary = corpus.auxiliary_counts(top_k)
    attack = count_attack(observed_counts, auxiliary)
    truth = {tag: keyword for tag, keyword in tag_to_keyword.items()}
    correct = sum(
        1
        for tag, keyword in attack.recovered.items()
        if truth.get(tag) == keyword
    )
    # The paper's core claim: keywords with *unique* result counts are
    # "immediately" revealed. Score those separately - they should recover
    # at essentially 100%.
    from collections import Counter

    count_multiplicity = Counter(auxiliary.values())
    unique_searches = [
        tag
        for tag, keyword in tag_to_keyword.items()
        if count_multiplicity[auxiliary[keyword]] == 1
    ]
    unique_correct = sum(
        1
        for tag in unique_searches
        if attack.recovered.get(tag) == truth[tag]
    )
    contents = document_recovery(attack.recovered, access_pattern)
    return SseCountResult(
        num_documents=num_documents,
        top_k=top_k,
        unique_count_fraction=attack.unique_count_fraction,
        paper_unique_fraction=0.63,
        tokens_observed=len(tag_to_keyword),
        tokens_carved_from_memory=len(carved_tags),
        keywords_recovered=correct,
        recovery_rate=correct / max(len(tag_to_keyword), 1),
        unique_count_searches=len(unique_searches),
        unique_count_recovery_rate=unique_correct / max(len(unique_searches), 1),
        documents_with_recovered_content=len(contents),
    )
