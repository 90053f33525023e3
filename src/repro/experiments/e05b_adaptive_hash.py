"""E5b — §5: the adaptive hash index reveals what is queried often.

Paper §5: "To adaptively improve performance and support (amortized)
constant-time retrieval for frequently accessed database pages, InnoDB keeps
per-page metadata and access counters. If a page is accessed often, InnoDB
indexes its contents in an adaptive hash index."

Protocol: an encrypted table (values RND-encrypted — no content leakage) is
queried with a Zipf-skewed point-lookup workload. A memory snapshot then
reads the AHI's promoted set and access counters, and frequency analysis
maps hot keys back to plaintext identities using an auxiliary popularity
model. Content encryption does not help: the *access pattern* is the leak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..attacks import frequency_analysis
from ..crypto.symmetric import RndCipher
from ..server import MySQLServer, ServerConfig
from ..snapshot import AttackScenario, capture
from ..workloads import zipf_frequencies, zipf_point_queries


@dataclass(frozen=True)
class AdaptiveHashResult:
    """Hot-key leakage through the AHI."""

    num_keys: int
    num_lookups: int
    promoted_keys: int
    hottest_identified: bool       # the most-queried key tops the AHI
    top5_recovery_rate: float      # identities of the 5 hottest keys


def run_adaptive_hash_leak(
    num_keys: int = 50,
    num_lookups: int = 2_000,
    zipf_s: float = 1.2,
    promotion_threshold: int = 16,
    seed: int = 0,
) -> AdaptiveHashResult:
    """Skewed lookups on an encrypted table; recover hot identities."""
    rng = random.Random(seed)
    server = MySQLServer(ServerConfig(ahi_threshold=promotion_threshold))
    session = server.connect("app")
    cipher = RndCipher(b"ahi-experiment-key-0123456789ab!")
    server.execute(session, "CREATE TABLE vault (id INT PRIMARY KEY, secret BLOB)")
    # Logical identities 0..n-1 map to storage keys via a secret shuffle -
    # the attacker must not trivially read identity off the key.
    storage_key_of = list(range(1, num_keys + 1))
    rng.shuffle(storage_key_of)
    for identity in range(num_keys):
        ct = cipher.encrypt(f"record-{identity}".encode()).hex()
        server.execute(
            session,
            f"INSERT INTO vault (id, secret) "
            f"VALUES ({storage_key_of[identity]}, x'{ct}')",
        )

    # Victim workload: identity popularity is Zipf (public knowledge:
    # celebrities, best-sellers, common diagnoses...).
    identities = list(range(num_keys))
    targets = zipf_point_queries(identities, num_lookups, s=zipf_s, seed=seed)
    for identity in targets:
        server.execute(
            session,
            f"SELECT secret FROM vault WHERE id = {storage_key_of[identity]}",
        )

    # --- attacker: memory snapshot exposes the AHI ---------------------------
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    hot = snap.get("adaptive_hash_hot_keys") or ()
    observed = {h.key: h.access_count for h in hot}

    model = zipf_frequencies(identities, s=zipf_s)
    attack = frequency_analysis(observed, model) if observed else None

    true_identity_of = {
        storage_key_of[identity]: identity for identity in identities
    }
    hottest_true = storage_key_of[0]  # identity 0 is the Zipf head
    hottest_identified = bool(hot) and hot[0].key == hottest_true

    top5 = [h.key for h in hot[:5]]
    correct = 0
    if attack is not None:
        for key in top5:
            if attack.assignment.get(key) == true_identity_of[key]:
                correct += 1
    return AdaptiveHashResult(
        num_keys=num_keys,
        num_lookups=num_lookups,
        promoted_keys=len(hot),
        hottest_identified=hottest_identified,
        top5_recovery_rate=correct / max(len(top5), 1),
    )
