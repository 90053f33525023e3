#!/usr/bin/env python
"""OPE: the encryption that breaks with zero queries observed.

Paper Section 2: "Some PRE ciphertexts always leak, enabling powerful
snapshot attacks that recover plaintexts." This demo OPE-encrypts an age
column, steals nothing but the disk, and recovers every row with the
Naveed-style sorting attack — the baseline that motivates the rest of the
paper's snapshot argument.

Run: ``python examples/ope_static_snapshot.py``
"""

import random
from collections import Counter

from repro import AttackScenario, MySQLServer, capture
from repro.attacks.sorting import sorting_attack
from repro.crypto.ope import OpeCipher
from repro.forensics import read_leaf_entries
from repro.storage.record import decode_row


def main() -> None:
    rng = random.Random(4)
    domain = list(range(18, 66))
    ope = OpeCipher(b"hr-ope-key-0123456789abcdef!!!!!", plaintext_bits=8)

    print("== an HR system stores OPE-encrypted ages ==")
    server = MySQLServer()
    session = server.connect("hr")
    server.execute(session, "CREATE TABLE staff (id INT PRIMARY KEY, age_ope INT)")
    ages = [rng.choice(domain) for _ in range(300)] + domain  # dense column
    for row_id, age in enumerate(ages, start=1):
        server.execute(
            session,
            f"INSERT INTO staff (id, age_ope) VALUES ({row_id}, {ope.encrypt(age)})",
        )
    print(f"{len(ages)} rows stored; ciphertexts look like "
          f"{ope.encrypt(30)}, {ope.encrypt(45)}, ...")

    print("\n== disk theft; zero queries ever observed ==")
    # A checkpoint writes every dirty page back to the .ibd file first.
    server.engine.checkpoint()
    snap = capture(server, AttackScenario.DISK_THEFT)
    ciphertexts = []
    for _, payload in read_leaf_entries(snap.tablespace_images["staff"]):
        row, _ = decode_row(payload)
        ciphertexts.append(row[1])
    print(f"carved {len(ciphertexts)} ciphertexts from the tablespace image")

    print("\n== sorting attack (auxiliary data: just the age domain) ==")
    result = sorting_attack(ciphertexts, domain)
    truth = {ope.encrypt(v): v for v in domain}
    rate = result.row_recovery_rate(ciphertexts, truth)
    print(f"dense case: {result.dense}; rows recovered: {rate:.0%}")
    recovered_hist = Counter(result.assignment[ct] for ct in ciphertexts)
    top = recovered_hist.most_common(3)
    print(f"recovered age histogram (top 3): {top}")
    print("\n=> 'provable security' of the cipher is irrelevant: the ordering")
    print("   the scheme must expose is the plaintext, up to a sorted relabel.")


if __name__ == "__main__":
    main()
