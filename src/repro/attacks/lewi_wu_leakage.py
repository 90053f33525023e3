"""Aggregate bit leakage from Lewi-Wu range-query tokens (paper §6).

The simulation the paper reports: "We sampled a database of 32-bit integers
and several range queries (both an upper and lower bound), all uniformly at
random. We then computed the leakage resulting from each set of queries if
executed against a given database, aggregating the results over 1,000
trials." Results: 5 queries → ~12% of bits, 25 → 19%, 50 → 25%.

**Leakage model** (block size 1 bit). Comparing a token for endpoint ``a``
against the right ciphertext of ``y`` reveals the order and the index ``j``
of the first differing bit. Under the semantic-security game the attacker
knows the queried endpoints (the definition quantifies over known queries;
operationally, endpoints are often inferable), so one comparison determines
bits ``0..j`` of ``y``: the first ``j`` bits equal ``a``'s and bit ``j`` is
its complement. If the comparison reports equality, all bits of ``y`` are
determined. A value's leaked-bit count is the maximum over all observed
tokens.

The functions here compute that leakage **directly from plaintexts** via
:func:`repro.crypto.ore_lewi_wu.reference_compare`, which the test suite
proves agrees with honest ciphertext-level evaluation.

**Nearest endpoints suffice.** The leaked-bit count is a non-increasing
function of ``msb(value XOR endpoint)``, i.e. a non-decreasing function of
the length of their common prefix. Over a sorted endpoint set the longest
common prefix with ``value`` is always reached at its predecessor or its
successor: an endpoint below the predecessor can share a prefix with
``value`` only if the predecessor, which lies between them, shares it too,
and likewise above the successor. So the maximum over all ``2q`` tokens
equals the maximum over those two. :func:`bits_leaked_vectorized`
therefore sorts the endpoints once, finds both neighbours of every value
with one ``searchsorted`` and does the accounting on one XOR per value,
exactly and in ``O((N + q) log q)``: the 10,000-value x 100-token x
1,000-trial sweep runs in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..crypto.ore_lewi_wu import reference_compare
from ..errors import AttackError


@dataclass(frozen=True)
class LeakageSummary:
    """Aggregated leakage over a set of trials."""

    num_values: int
    num_queries: int
    bit_length: int
    trials: int
    mean_fraction_leaked: float
    mean_bits_per_value: float


def bits_leaked_for_value(
    value: int, endpoints: Sequence[int], bit_length: int = 32, block_bits: int = 1
) -> int:
    """Bits of ``value`` determined by comparisons against ``endpoints``."""
    if not endpoints:
        return 0
    blocks = bit_length // block_bits
    best = 0
    for endpoint in endpoints:
        result = reference_compare(endpoint, value, bit_length, block_bits)
        if result.first_diff_block is None:
            return bit_length  # equality reveals everything
        # Blocks 0..j-1 match the endpoint; block j's order is revealed,
        # which with 1-bit blocks pins the bit exactly. For k-bit blocks we
        # count the matched prefix plus the (partially) revealed block as
        # determined only when k == 1.
        leaked_blocks = result.first_diff_block + (1 if block_bits == 1 else 0)
        best = max(best, min(leaked_blocks * block_bits, bit_length))
        if best == bit_length:
            break
    return best


def leakage_trial(
    rng: random.Random,
    num_values: int,
    num_queries: int,
    bit_length: int = 32,
    block_bits: int = 1,
) -> float:
    """One trial: fraction of database bits leaked by the query tokens."""
    if num_values <= 0 or num_queries < 0:
        raise AttackError("num_values must be positive, num_queries >= 0")
    domain = 1 << bit_length
    values = [rng.randrange(domain) for _ in range(num_values)]
    endpoints: List[int] = []
    for _ in range(num_queries):
        a = rng.randrange(domain)
        b = rng.randrange(domain)
        endpoints.extend((min(a, b), max(a, b)))
    total_leaked = sum(
        bits_leaked_for_value(v, endpoints, bit_length, block_bits) for v in values
    )
    return total_leaked / (num_values * bit_length)


def bits_leaked_vectorized(
    values: "np.ndarray",
    endpoints: "np.ndarray",
    bit_length: int = 32,
    block_bits: int = 1,
) -> "np.ndarray":
    """Vectorized :func:`bits_leaked_for_value` over a whole database.

    Exactly the same leakage accounting, computed via XOR bit positions:
    for 1-bit blocks the comparison reveals ``bit_length - msb(x XOR y)``
    bits; for k-bit blocks only the fully-matched prefix blocks count.
    Only each value's nearest endpoints below and above are compared (see
    the module docstring): the smaller of their two XORs has the highest
    common prefix of all. Requires ``bit_length <= 52`` (exact float64
    exponents).
    """
    if bit_length > 52:
        raise AttackError("vectorized path supports bit_length <= 52")
    if endpoints.size == 0:
        return np.zeros(len(values), dtype=np.int64)
    ordered = np.sort(endpoints)
    above = np.searchsorted(ordered, values)
    successor = ordered[np.minimum(above, ordered.size - 1)]
    predecessor = ordered[np.maximum(above - 1, 0)]
    xor = np.minimum(values ^ successor, values ^ predecessor)
    # floor(log2(xor)) + 1 via float64 exponent; 0 stays 0.
    exponents = np.frexp(xor.astype(np.float64))[1]  # msb position + 1
    first_diff_block = (bit_length - exponents) // block_bits
    leaked_blocks = first_diff_block + (1 if block_bits == 1 else 0)
    leaked = np.minimum(leaked_blocks * block_bits, bit_length)
    return np.where(xor == 0, bit_length, leaked)


def simulate_leakage(
    num_values: int = 10_000,
    num_queries: int = 5,
    trials: int = 1_000,
    bit_length: int = 32,
    block_bits: int = 1,
    seed: int = 0,
) -> LeakageSummary:
    """The paper's simulation: mean leaked-bit fraction over trials.

    Defaults reproduce the Section 6 setup (database of 10,000 uniform
    32-bit integers, 1-bit blocks, 1,000 trials); vary ``num_queries``
    across {5, 25, 50} for the reported sweep. Runs the vectorized
    comparator (validated against the scalar/ciphertext paths by the test
    suite) so the full-fidelity sweep completes in seconds.
    """
    rng = np.random.default_rng(seed)
    domain = 1 << bit_length
    total = 0.0
    for _ in range(trials):
        values = rng.integers(0, domain, size=num_values, dtype=np.int64)
        raw = rng.integers(0, domain, size=(num_queries, 2), dtype=np.int64)
        endpoints = raw.reshape(-1)
        leaked = bits_leaked_vectorized(values, endpoints, bit_length, block_bits)
        total += leaked.sum() / (num_values * bit_length)
    mean_fraction = total / trials if trials else 0.0
    return LeakageSummary(
        num_values=num_values,
        num_queries=num_queries,
        bit_length=bit_length,
        trials=trials,
        mean_fraction_leaked=mean_fraction,
        mean_bits_per_value=mean_fraction * bit_length,
    )
