"""E13 — §2: always-leaking PRE falls to a *static* snapshot (OPE/sorting).

Paper §2: "Some PRE ciphertexts always leak [4, 7], enabling powerful
snapshot attacks that recover plaintexts [10, 23, 39]." This is the baseline
against which the paper's news ("even the schemes that only leak under
queries are broken, because snapshots contain queries") is set.

Protocol: an age-like column is OPE-encrypted and stored through the real
server; the attacker steals the **disk only**, reads the ciphertext column
out of the tablespace image, and runs the Naveed-style sorting / cumulative
attack with census-style auxiliary statistics. No queries are ever observed.

The server checkpoints before the theft. Rows reach the ``.ibd`` file only
when their page is written back, and a checkpoint writes back every dirty
page; without it the stolen image would hold only the pages the buffer
pool happened to evict, and the attacker would carve fewer rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..attacks.sorting import sorting_attack
from ..crypto.ope import OpeCipher
from ..forensics import read_leaf_entries
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture
from ..storage.record import decode_row
from ..workloads import zipf_frequencies


@dataclass(frozen=True)
class OpeSortingResult:
    """Static-snapshot recovery of an OPE column."""

    num_rows: int
    domain_size: int
    distinct_ciphertexts: int
    dense_case: bool
    value_recovery_rate: float
    row_recovery_rate: float


def run_ope_sorting(
    num_rows: int = 1_000,
    domain_low: int = 18,
    domain_high: int = 90,
    zipf_s: float = 0.8,
    seed: int = 0,
) -> OpeSortingResult:
    """OPE column through the server; sorting attack on the stolen disk."""
    rng = random.Random(seed)
    domain = list(range(domain_low, domain_high + 1))
    model = zipf_frequencies(domain, s=zipf_s)
    ope = OpeCipher(b"ope-e13-key-0123456789abcdef!!!!", plaintext_bits=8)

    server = MySQLServer()
    session = server.connect("hr-app")
    server.execute(session, "CREATE TABLE staff (id INT PRIMARY KEY, age_ope INT)")
    plaintexts = rng.choices(domain, weights=[model[v] for v in domain], k=num_rows)
    for row_id, age in enumerate(plaintexts, start=1):
        server.execute(
            session,
            f"INSERT INTO staff (id, age_ope) VALUES ({row_id}, {ope.encrypt(age)})",
        )

    # --- attacker: disk theft, tablespace parsing, sorting attack -------------
    server.engine.checkpoint()
    snap = capture(server, AttackScenario.DISK_THEFT)
    ciphertexts: List[int] = []
    for _, payload in read_leaf_entries(snap.tablespace_images["staff"]):
        row, _ = decode_row(payload)  # (id, age_ope)
        ciphertexts.append(row[1])
    assert len(ciphertexts) == num_rows

    result = sorting_attack(ciphertexts, domain, auxiliary=model)
    truth = {ope.encrypt(v): v for v in set(plaintexts)}
    return OpeSortingResult(
        num_rows=num_rows,
        domain_size=len(domain),
        distinct_ciphertexts=len(set(ciphertexts)),
        dense_case=result.dense,
        value_recovery_rate=result.accuracy(truth),
        row_recovery_rate=result.row_recovery_rate(ciphertexts, truth),
    )
