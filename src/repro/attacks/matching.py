"""Bipartite matching attacks with auxiliary models (paper §6, Seabed/Arx).

"it creates a bipartite graph in which each ciphertext is a node on the
left-hand side and each possible plaintext is a node on the right-hand side,
and draws an edge ... only if the bits it learned about the left-hand
ciphertext match the bits of the right-hand plaintext. Each edge in the
graph is weighted using frequency information. Finally, the attack recovers
the most likely plaintext for each ciphertext by finding a matching."

The matching maximises a log-likelihood score over every ciphertext ->
plaintext pair; incompatible pairs get a -inf-like penalty. It is solved
exactly by :func:`min_cost_assignment`, a pure-Python port of the
shortest-augmenting-path algorithm of Crouse (2016, "On implementing 2D
rectangular assignment algorithms"), the one SciPy's
``linear_sum_assignment`` runs. The port keeps SciPy's tie-breaking and the
order of its floating-point operations, so it returns the same assignment;
the tests use SciPy as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from ..errors import AttackError

_FORBIDDEN = -1e9  # score for constraint-violating edges


@dataclass(frozen=True)
class MatchingAttackResult:
    """Assignment produced by the bipartite matching attack."""

    assignment: Dict[Hashable, Hashable]  # ciphertext label -> plaintext

    def accuracy(self, ground_truth: Mapping[Hashable, Hashable]) -> float:
        if not ground_truth:
            raise AttackError("empty ground truth")
        correct = sum(
            1
            for label, plain in self.assignment.items()
            if ground_truth.get(label) == plain
        )
        return correct / len(ground_truth)


def matching_attack(
    ciphertext_freqs: Mapping[Hashable, int],
    plaintext_freqs: Mapping[Hashable, float],
    compatible: Optional[Callable[[Hashable, Hashable], bool]] = None,
) -> MatchingAttackResult:
    """Recover a maximum-likelihood ciphertext -> plaintext assignment.

    Parameters
    ----------
    ciphertext_freqs:
        Observed occurrence counts per ciphertext-side label.
    plaintext_freqs:
        Auxiliary model: relative frequency per candidate plaintext. There
        must be at least as many plaintext candidates as ciphertext labels.
    compatible:
        Optional hard constraint (the "learned bits match" edges): pairs for
        which it returns ``False`` are excluded from the matching.
    """
    if not ciphertext_freqs:
        raise AttackError("no ciphertext observations")
    labels = sorted(ciphertext_freqs, key=repr)
    plains = sorted(plaintext_freqs, key=repr)
    if len(plains) < len(labels):
        raise AttackError(
            f"{len(labels)} ciphertexts but only {len(plains)} plaintext "
            f"candidates"
        )

    total_obs = sum(ciphertext_freqs.values()) or 1
    total_model = sum(plaintext_freqs.values()) or 1.0

    score = []
    for label in labels:
        obs = ciphertext_freqs[label] / total_obs
        row = []
        for plain in plains:
            if compatible is not None and not compatible(label, plain):
                row.append(_FORBIDDEN)
                continue
            model = plaintext_freqs[plain] / total_model
            # Log-likelihood of observing `obs` under plaintext frequency
            # `model`: penalize squared frequency mismatch (a standard
            # surrogate that is maximized by rank-consistent assignments).
            row.append(-((obs - model) ** 2) + 1e-12 * math.log(model + 1e-12))
        score.append(row)

    # Maximise the score by minimising its negation, which is exact.
    cols = min_cost_assignment([[-s for s in row] for row in score])
    assignment = {}
    for i, j in enumerate(cols):
        if score[i][j] <= _FORBIDDEN / 2:
            continue  # only forbidden edges were available for this label
        assignment[labels[i]] = plains[j]
    return MatchingAttackResult(assignment=assignment)


def min_cost_assignment(cost: Sequence[Sequence[float]]) -> List[int]:
    """Assign each row a distinct column so that the summed cost is minimal.

    ``cost`` has at most as many rows as columns; the result lists the
    chosen column of each row. Each row in turn is added to the matching
    along a shortest augmenting path over reduced costs (Dijkstra-like),
    after which the dual potentials ``u``/``v`` are updated (Crouse 2016).
    Ties go as in SciPy's ``rectangular_lsap.cpp``: candidate columns are
    scanned from the last one down, and a tied minimum prefers a column
    that is still unassigned. ``+inf`` marks a forbidden pair; a NaN or
    ``-inf`` entry, or a row with no finite path left, raises
    ``ValueError``.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    for row in cost:
        for c in row:
            if c != c or c == -math.inf:
                raise ValueError("matrix contains invalid numeric entries")
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row to an unassigned column.
        shortest = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        visited_rows = []
        visited_cols = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            row = cost[i]
            ui = u[i]
            index = -1
            lowest = inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last

        # Update the dual potentials.
        u[cur_row] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        # Augment the matching along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row
