"""E8 — the Lewi-Wu token bit-leakage simulation (paper §6).

"For a database of size 10,000 and only five simulated range queries, the
average fraction of bits leaked (out of possible 320,000) is surprisingly
high, around 12% ... For twenty-five range queries, the fraction is 19%. If
fifty range queries are found in the memory snapshot ... the snapshot
attacker recovers 25% of the bits (on average, 8 bits of each 32-bit
value)."

Two components:

* :func:`run_lewi_wu_sweep` — the statistical sweep itself, via the fast
  plaintext-equivalent comparator (proven equivalent to honest ciphertext
  evaluation by the test suite).
* :func:`run_end_to_end_token_recovery` — the systems half: tokens embedded
  in real query text are carved from a memory snapshot, parsed back into
  left ciphertexts, and honestly compared against the stored right
  ciphertexts — demonstrating that the sweep's input (the token set) is
  genuinely available to a snapshot attacker.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..attacks import simulate_leakage
from ..attacks.lewi_wu_leakage import LeakageSummary
from ..crypto.ore_lewi_wu import LewiWuLeftCiphertext
from ..edb import OreRangeEdb
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture

#: The paper's reported sweep: queries -> fraction of bits leaked.
PAPER_SWEEP = {5: 0.12, 25: 0.19, 50: 0.25}


@dataclass(frozen=True)
class LewiWuResult:
    """Sweep results next to the paper's figures."""

    summaries: Tuple[LeakageSummary, ...]
    paper_sweep: Dict[int, float]

    def rows(self) -> List[Tuple[int, float, float, float]]:
        """(queries, measured fraction, paper fraction, bits/value)."""
        return [
            (
                s.num_queries,
                s.mean_fraction_leaked,
                self.paper_sweep.get(s.num_queries, float("nan")),
                s.mean_bits_per_value,
            )
            for s in self.summaries
        ]

    @property
    def monotone(self) -> bool:
        fractions = [s.mean_fraction_leaked for s in self.summaries]
        return fractions == sorted(fractions)


def run_lewi_wu_sweep(
    num_values: int = 10_000,
    query_counts: Sequence[int] = (5, 25, 50),
    trials: int = 1_000,
    bit_length: int = 32,
    block_bits: int = 1,
    seed: int = 0,
) -> LewiWuResult:
    """The paper's sweep at full fidelity (10,000 values, 1,000 trials)."""
    summaries = tuple(
        simulate_leakage(
            num_values=num_values,
            num_queries=q,
            trials=trials,
            bit_length=bit_length,
            block_bits=block_bits,
            seed=seed + q,
        )
        for q in query_counts
    )
    return LewiWuResult(summaries=summaries, paper_sweep=dict(PAPER_SWEEP))


@dataclass(frozen=True)
class TokenRecoveryResult:
    """End-to-end: tokens carved from a snapshot drive honest comparisons."""

    queries_issued: int
    tokens_carved: int
    values_stored: int
    mean_bits_leaked_per_value: float


def run_end_to_end_token_recovery(
    num_values: int = 12,
    num_queries: int = 3,
    bit_length: int = 16,
    seed: int = 0,
) -> TokenRecoveryResult:
    """Small-scale full-stack demonstration of the token pipeline."""
    rng = random.Random(seed)
    server = MySQLServer()
    session = server.connect("ore-client")
    edb = OreRangeEdb(
        server, session, b"lewi-wu-e2e-key-0123456789abcdef", bit_length=bit_length
    )
    domain = 1 << bit_length
    values = {i + 1: rng.randrange(domain) for i in range(num_values)}
    for row_id, value in values.items():
        edb.insert(row_id, value)
    for _ in range(num_queries):
        a, b = rng.randrange(domain), rng.randrange(domain)
        edb.range_query(min(a, b), max(a, b))

    # Attacker: carve token hexes out of the memory snapshot's query texts.
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    dump = snap.require("memory_dump")
    token_pattern = re.compile(rb"ore_range\(val_ore, '([0-9a-f]+)', '([0-9a-f]+)'\)")
    carved: List[LewiWuLeftCiphertext] = []
    seen = set()
    for match in token_pattern.finditer(dump.data):
        for group in match.groups():
            hexstr = group.decode("ascii")
            if hexstr not in seen:
                seen.add(hexstr)
                carved.append(LewiWuLeftCiphertext.from_hex(hexstr))

    # Honest comparisons of carved tokens against the stored column.
    stored = edb.stored_ciphertexts()
    scheme = edb.scheme
    total_bits = 0
    for right in stored.values():
        best = 0
        for left in carved:
            result = scheme.compare(left, right)
            if result.first_diff_block is None:
                best = bit_length
                break
            best = max(best, result.first_diff_block + 1)
        total_bits += best
    return TokenRecoveryResult(
        queries_issued=num_queries,
        tokens_carved=len(carved),
        values_stored=len(stored),
        mean_bits_leaked_per_value=total_bits / max(len(stored), 1),
    )
