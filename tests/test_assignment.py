"""The matching attack's assignment solver and the cost of importing it.

:func:`min_cost_assignment` ports the algorithm SciPy's
``linear_sum_assignment`` runs (Crouse 2016), tie-breaking included, so
SciPy is its oracle: the same column for every row on every seeded matrix.
Where SciPy is not installed, a brute force over all permutations still
checks that the assignment is optimal.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks import matching_attack
from repro.attacks.matching import min_cost_assignment

SRC = Path(__file__).resolve().parents[1] / "src"


def seeded_matrix(rng, kind, rows, cols):
    """One cost matrix of a kind that exercises a different tie pattern."""
    if kind == "random":
        return [[rng.random() for _ in range(cols)] for _ in range(rows)]
    if kind == "ties":
        return [[float(rng.randint(0, 3)) for _ in range(cols)] for _ in range(rows)]
    if kind == "constant":
        return [[2.5] * cols for _ in range(rows)]
    # "forbidden": the matching attack's -1e9 score for excluded pairs.
    return [
        [-1e9 if rng.random() < 0.4 else rng.random() for _ in range(cols)]
        for _ in range(rows)
    ]


KINDS = ("random", "ties", "constant", "forbidden")


def seeded_cases(count, max_rows, max_cols, seed):
    rng = random.Random(seed)
    for n in range(count):
        rows = rng.randint(1, max_rows)
        cols = rng.randint(rows, max_cols)
        matrix = seeded_matrix(rng, KINDS[n % len(KINDS)], rows, cols)
        yield matrix, bool(rng.getrandbits(1))


def solve(matrix, maximize):
    """Maximise the way :func:`matching_attack` does: negate, then minimise."""
    if maximize:
        matrix = [[-c for c in row] for row in matrix]
    return min_cost_assignment(matrix)


def total(matrix, cols):
    return sum(row[j] for row, j in zip(matrix, cols))


class TestOracle:
    def test_matches_scipy_on_seeded_matrices(self):
        np = pytest.importorskip("numpy")
        scipy_optimize = pytest.importorskip("scipy.optimize")
        cases = 0
        for matrix, maximize in seeded_cases(2400, 12, 12, seed=23):
            rows, cols = scipy_optimize.linear_sum_assignment(
                np.array(matrix), maximize=maximize
            )
            assert rows.tolist() == list(range(len(matrix)))
            assert cols.tolist() == solve(matrix, maximize), (matrix, maximize)
            cases += 1
        assert cases == 2400

    def test_reaches_the_brute_force_optimum(self):
        for matrix, maximize in seeded_cases(600, 6, 7, seed=11):
            cols = solve(matrix, maximize)
            assert len(set(cols)) == len(cols)
            perms = itertools.permutations(range(len(matrix[0])), len(matrix))
            best = (max if maximize else min)(total(matrix, p) for p in perms)
            # Sums reach -6e9, where one ulp is about 1e-6.
            assert math.isclose(total(matrix, cols), best, rel_tol=0.0, abs_tol=1e-5)

    def test_constant_matrix_gives_the_identity(self):
        assert min_cost_assignment([[1.0] * 5 for _ in range(5)]) == [0, 1, 2, 3, 4]

    def test_no_rows(self):
        assert min_cost_assignment([]) == []


class TestInvalidInput:
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_and_negative_infinity_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            min_cost_assignment([[1.0, bad], [2.0, 3.0]])

    def test_forbidden_everywhere_is_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment([[math.inf, 1.0], [math.inf, 2.0]])

    def test_positive_infinity_is_a_forbidden_pair(self):
        assert min_cost_assignment([[math.inf, 1.0], [1.0, math.inf]]) == [1, 0]


def test_matching_attack_tie_keeps_scipys_assignment():
    # Both pairings score the same; SciPy's tie-breaking chose this one.
    result = matching_attack({"c1": 50, "c2": 50}, {"p1": 0.5, "p2": 0.5})
    assert result.assignment == {"c1": "p1", "c2": "p2"}


def test_pipeline_imports_neither_scipy_nor_networkx():
    """Importing the package and running E10's attack loads no heavy library.

    A fresh interpreter is the only way to see what an import pulls in:
    this test process may already hold SciPy for the oracle above.
    """
    script = (
        "import sys\n"
        "import repro, repro.attacks, repro.experiments\n"
        "from repro.experiments import run_arx_transcript\n"
        "run_arx_transcript(seed=0)\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
