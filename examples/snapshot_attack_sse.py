#!/usr/bin/env python
"""End-to-end snapshot attack on a searchable encrypted database.

Paper Section 6, "Token-based systems": a single memory snapshot contains
past search tokens (in the query history and heap); applying a carved token
to the encrypted index reveals which documents match — breaking semantic
security — and unique result counts then identify the keywords themselves
(count-based leakage-abuse).

Run: ``python examples/snapshot_attack_sse.py``
"""

from repro import AttackScenario, MySQLServer, capture
from repro.attacks import count_attack
from repro.attacks.count_attack import document_recovery
from repro.edb import SearchableEdb
from repro.forensics.memory_scan import scan_for_tokens
from repro.workloads import generate_corpus


def main() -> None:
    print("== build the encrypted mail store ==")
    corpus = generate_corpus(num_documents=400, vocabulary_size=120, seed=1)
    server = MySQLServer()
    session = server.connect("mail-client")
    edb = SearchableEdb(server, session, b"mail-tenant-key-0123456789abcdef")
    for doc in corpus.documents:
        edb.insert_document(doc.doc_id, doc.keywords, doc.body)
    print(f"indexed {corpus.num_documents} encrypted documents")

    print("\n== the victim searches their mail ==")
    searched = corpus.top_keywords(40)[:12]
    truth = {}
    for keyword in searched:
        result = edb.search(keyword)
        truth[result.tag_hex] = keyword
    print(f"victim issued {len(searched)} keyword searches")

    print("\n== one VM snapshot later... ==")
    snapshot = capture(server, AttackScenario.VM_SNAPSHOT)
    dump = snapshot.require("memory_dump")
    carved = set()
    for _, hexstr in scan_for_tokens(dump, min_hex_length=64):
        for offset in range(0, len(hexstr) - 63):
            candidate = hexstr[offset : offset + 64]
            if candidate in truth:
                carved.add(candidate)
    print(f"search tokens carved from the heap/history: {len(carved)}")

    print("\n== replaying tokens against the encrypted index ==")
    observed_counts = {tag: len(edb.replay_tag(tag)) for tag in carved}
    access = {tag: edb.replay_tag(tag) for tag in carved}

    print("\n== count attack with the public corpus statistics ==")
    auxiliary = corpus.auxiliary_counts(40)
    attack = count_attack(observed_counts, auxiliary)
    print(f"unique-count fraction of the top-40: {attack.unique_count_fraction:.0%}")
    correct = {
        tag: kw for tag, kw in attack.recovered.items() if truth.get(tag) == kw
    }
    print(f"keywords recovered with certainty: {len(correct)}/{len(carved)}")
    for tag, keyword in list(correct.items())[:5]:
        print(f"  token {tag[:16]}... => {keyword!r}")

    contents = document_recovery(attack.recovered, access)
    print(
        f"\npartial plaintext recovered for {len(contents)} encrypted documents, "
        f"e.g. doc {next(iter(contents))}: {contents[next(iter(contents))][:4]}"
    )


if __name__ == "__main__":
    main()
