"""Inference attacks over snapshot leakage (paper Section 6).

* :mod:`.count_attack` — count-based leakage-abuse against searchable
  encryption (Cash et al. style): unique result counts identify keywords.
* :mod:`.frequency` — frequency analysis by rank matching, the
  Lacharité-Paterson maximum-likelihood estimator.
* :mod:`.lewi_wu_leakage` — aggregate bit leakage from Lewi-Wu range-query
  tokens (the paper's Section 6 simulation).
* :mod:`.binomial` — the binomial attack on order-revealing ciphertexts
  (Grubbs et al.): rank implies high-order plaintext bits.
* :mod:`.matching` — bipartite matching with auxiliary frequency models,
  solved exactly by an in-tree shortest-augmenting-path assignment
  (Crouse 2016, the algorithm SciPy's ``linear_sum_assignment`` runs;
  SciPy is its test oracle, not a runtime dependency).
* :mod:`.arx_attack` — Arx transcript reconstruction from transaction logs
  plus frequency/matching recovery of index values.
"""

from .count_attack import CountAttackResult, count_attack, unique_count_fraction
from .frequency import FrequencyAttackResult, frequency_analysis
from .lewi_wu_leakage import (
    LeakageSummary,
    bits_leaked_for_value,
    simulate_leakage,
    leakage_trial,
)
from .binomial import BinomialAttackResult, binomial_attack
from .sorting import SortingAttackResult, sorting_attack
from .matching import MatchingAttackResult, matching_attack
from .arx_attack import (
    ArxAttackResult,
    arx_frequency_attack,
    reconstruct_transcript,
)

__all__ = [
    "count_attack",
    "unique_count_fraction",
    "CountAttackResult",
    "frequency_analysis",
    "FrequencyAttackResult",
    "simulate_leakage",
    "leakage_trial",
    "bits_leaked_for_value",
    "LeakageSummary",
    "binomial_attack",
    "sorting_attack",
    "SortingAttackResult",
    "BinomialAttackResult",
    "matching_attack",
    "MatchingAttackResult",
    "reconstruct_transcript",
    "arx_frequency_attack",
    "ArxAttackResult",
]
