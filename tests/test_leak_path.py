"""The researcher's-path kernels against their slow references.

* :func:`bits_leaked_vectorized` compares each value with its nearest
  endpoints only; ``all_pairs_bits_leaked`` below is the kernel it replaced,
  which compares every value with every endpoint.
* :func:`compile_where` binds a WHERE clause once per statement;
  ``where_matches`` below is the per-row evaluator it replaced.

Both must agree exactly: same leaked-bit counts and dtype, same matching
rows, and the same exception at the same row.
"""

import random

import numpy as np
import pytest

from repro.attacks.lewi_wu_leakage import bits_leaked_vectorized
from repro.errors import ServerError
from repro.server.catalog import TableSchema
from repro.server.executor import compile_where, filter_rows
from repro.sql.ast import (
    BetweenCondition,
    ColumnDef,
    Comparison,
    FunctionCondition,
    MatchCondition,
    WhereClause,
)

# -- E8: the Lewi-Wu leakage kernel ----------------------------------------


def all_pairs_bits_leaked(values, endpoints, bit_length=32, block_bits=1):
    """The all-pairs kernel: an N x 2q XOR matrix reduced per value."""
    if endpoints.size == 0:
        return np.zeros(len(values), dtype=np.int64)
    xor = values[:, None] ^ endpoints[None, :]
    exponents = np.frexp(xor.astype(np.float64))[1]
    first_diff_block = (bit_length - exponents) // block_bits
    leaked_blocks = first_diff_block + (1 if block_bits == 1 else 0)
    leaked = np.minimum(leaked_blocks * block_bits, bit_length)
    leaked = np.where(xor == 0, bit_length, leaked)
    return leaked.max(axis=1)


def assert_same_leakage(values, endpoints, bit_length=32, block_bits=1):
    values = np.asarray(values, dtype=np.int64)
    endpoints = np.asarray(endpoints, dtype=np.int64)
    expected = all_pairs_bits_leaked(values, endpoints, bit_length, block_bits)
    got = bits_leaked_vectorized(values, endpoints, bit_length, block_bits)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_random_databases_match_all_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.integers(0, 1 << 32, size=int(rng.integers(1, 400)))
        endpoints = rng.integers(0, 1 << 32, size=2 * int(rng.integers(1, 60)))
        assert_same_leakage(values, endpoints)


@pytest.mark.parametrize("bit_length", range(1, 53))
def test_every_bit_length_and_dividing_block_size(bit_length):
    rng = np.random.default_rng(bit_length)
    top = (1 << bit_length) - 1
    for block_bits in (b for b in range(1, bit_length + 1) if bit_length % b == 0):
        for _ in range(8):
            values = rng.integers(0, top, size=64, endpoint=True)
            values[:2] = (0, top)
            count = int(rng.integers(1, 12))
            endpoints = rng.integers(0, top, size=count, endpoint=True)
            assert_same_leakage(values, endpoints, bit_length, block_bits)


@pytest.mark.parametrize("bit_length", (1, 8, 32, 52))
def test_edge_endpoint_sets(bit_length):
    top = (1 << bit_length) - 1
    values = np.array(sorted({0, 1, top // 2, top - 1, top}))
    middle = values[len(values) // 2]
    cases = [
        [],  # no endpoints: nothing leaks
        [top // 3],  # a single endpoint
        [0],  # an endpoint at the bottom of the domain
        [top],  # and at the top
        [top // 2, top // 2, top // 2],  # duplicates only
        [0, 0, top, top, top // 2],  # duplicates at both ends
        list(values),  # every value is an endpoint
        [middle, middle ^ 1],  # a value and its nearest neighbour
    ]
    for block_bits in (1, 2, 4, 8):
        if bit_length % block_bits:
            continue
        for endpoints in cases:
            assert_same_leakage(values, endpoints, bit_length, block_bits)


def test_endpoint_equal_to_a_value_leaks_everything():
    values = np.array([5, 200, 77], dtype=np.int64)
    leaked = bits_leaked_vectorized(values, np.array([200, 3], dtype=np.int64), 8)
    assert leaked[1] == 8
    assert_same_leakage(values, [200, 3], bit_length=8)


# -- compiled WHERE clauses ------------------------------------------------


def _compare(op, left, right):
    if left is None or right is None:
        return False
    if type(left) is not type(right):
        return False
    return {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[op]


def condition_matches(schema, row, condition, udfs=None):
    """The per-row evaluator: resolves the column on every row."""
    value = row[schema.column_index(condition.column)]
    if isinstance(condition, Comparison):
        return _compare(condition.op, value, condition.value)
    if isinstance(condition, BetweenCondition):
        return _compare(">=", value, condition.low) and _compare(
            "<=", value, condition.high
        )
    if isinstance(condition, MatchCondition):
        if not isinstance(value, str):
            return False
        return condition.keyword.lower() in value.lower().split()
    udf = (udfs or {}).get(condition.function)
    if udf is None:
        raise ServerError(f"unknown function {condition.function!r}")
    return bool(udf(value, *condition.args))


def where_matches(schema, row, where, udfs=None):
    if where is None:
        return True
    return all(condition_matches(schema, row, c, udfs) for c in where.conditions)


SCHEMA = TableSchema(
    name="t",
    columns=(
        ColumnDef("id", "INT", primary_key=True),
        ColumnDef("n", "INT"),
        ColumnDef("s", "TEXT"),
        ColumnDef("b", "BLOB"),
    ),
    primary_key="id",
)
OPS = ("=", "!=", "<", "<=", ">", ">=")
WORDS = ("alpha", "Beta", "GAMMA", "delta")


def _literal(rng):
    return rng.choice(
        (
            None,
            rng.randint(-3, 3),
            rng.choice(WORDS).lower(),
            " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 3))),
            bytes([rng.randint(0, 3)]),
        )
    )


def _row(rng):
    # Any column may hold NULL or a value of another type (cross-type).
    return (rng.randint(0, 9),) + tuple(_literal(rng) for _ in range(3))


def _condition(rng):
    column = rng.choice(("id", "n", "s", "b"))
    kind = rng.randrange(4)
    if kind == 0:
        return Comparison(column=column, op=rng.choice(OPS), value=_literal(rng))
    if kind == 1:
        return BetweenCondition(column=column, low=_literal(rng), high=_literal(rng))
    if kind == 2:
        keyword = rng.choice(WORDS)
        keyword = rng.choice((keyword, keyword.upper(), keyword.swapcase()))
        return MatchCondition(column=column, keyword=keyword)
    return FunctionCondition(function="odd", column=column, args=(rng.randint(1, 2),))


def _odd(value, divisor):
    return isinstance(value, int) and (value // divisor) % 2


UDFS = {"odd": _odd}


def per_row(where):
    """The reference evaluator as a row predicate."""
    return lambda row: where_matches(SCHEMA, row, where, UDFS)


def _outcome(matches, rows):
    """Matching rows, or the exception's type and message."""
    try:
        return [row for row in rows if matches(row)]
    except ServerError as exc:
        return (type(exc), str(exc))


def test_random_clauses_match_per_row_evaluation():
    rng = random.Random(0)
    matched = 0
    for _ in range(600):
        where = WhereClause(
            tuple(_condition(rng) for _ in range(rng.randint(1, 3)))
        )
        rows = [_row(rng) for _ in range(40)]
        expected = [row for row in rows if where_matches(SCHEMA, row, where, UDFS)]
        compiled = compile_where(SCHEMA, where, UDFS)
        assert [row for row in rows if compiled(row)] == expected, where
        assert filter_rows(SCHEMA, rows, where, UDFS) == expected
        matched += bool(expected)
    assert matched > 100  # the clauses are not all unsatisfiable


@pytest.mark.parametrize("op", OPS)
def test_every_operator_against_every_type(op):
    rng = random.Random(op)
    rows = [_row(rng) for _ in range(200)]
    for constant in (None, 0, 2, "alpha", "beta gamma", b"\x01"):
        for column in ("id", "n", "s", "b"):
            where = WhereClause((Comparison(column=column, op=op, value=constant),))
            expected = [row for row in rows if where_matches(SCHEMA, row, where)]
            assert filter_rows(SCHEMA, rows, where) == expected


def test_between_with_mixed_bound_types():
    rng = random.Random(1)
    rows = [_row(rng) for _ in range(300)]
    bounds = (None, -1, 2, "alpha", "delta", b"\x00", b"\x02")
    for low in bounds:
        for high in bounds:
            for column in ("id", "n", "s", "b"):
                where = WhereClause(
                    (BetweenCondition(column=column, low=low, high=high),)
                )
                expected = [row for row in rows if where_matches(SCHEMA, row, where)]
                assert filter_rows(SCHEMA, rows, where) == expected


def test_match_is_case_insensitive_on_both_sides():
    rows = [(1, 0, "Alpha beta", b""), (2, 0, "ALPHABET", b""), (3, 0, None, b"")]
    where = WhereClause((MatchCondition(column="s", keyword="aLPHA"),))
    assert filter_rows(SCHEMA, rows, where) == [rows[0]]
    assert [r for r in rows if where_matches(SCHEMA, r, where)] == [rows[0]]


def test_no_clause_matches_everything():
    rows = [(1, None, None, None), (2, 5, "x", b"y")]
    assert filter_rows(SCHEMA, rows, None) == rows
    assert compile_where(SCHEMA, WhereClause(()))(rows[0])


def test_unknown_udf_raises_only_when_a_row_reaches_it():
    where = WhereClause(
        (
            Comparison(column="n", op="=", value=7),
            FunctionCondition(function="missing", column="s", args=()),
        )
    )
    compiled = compile_where(SCHEMA, where, UDFS)  # compiling never looks it up
    misses = [(1, 6, "a", b""), (2, None, "b", b""), (3, "7", "c", b"")]
    assert [row for row in misses if compiled(row)] == []
    hit = misses + [(4, 7, "d", b"")]
    assert _outcome(compiled, hit) == _outcome(per_row(where), hit) == (
        ServerError,
        "unknown function 'missing'",
    )
    rng = random.Random(2)
    for _ in range(200):
        where = WhereClause(
            tuple(_condition(rng) for _ in range(rng.randint(0, 2)))
            + (FunctionCondition(function="missing", column="n", args=()),)
        )
        rows = [_row(rng) for _ in range(rng.randint(0, 6))]
        compiled = compile_where(SCHEMA, where, UDFS)
        assert _outcome(compiled, rows) == _outcome(per_row(where), rows)


def test_udf_exceptions_propagate_unchanged():
    class Boom(Exception):
        pass

    raised = Boom("from the udf")
    calls = []

    def explode(value, *args):
        calls.append((value, args))
        raise raised

    where = WhereClause(
        (FunctionCondition(function="explode", column="n", args=(1, "k")),)
    )
    with pytest.raises(Boom) as info:
        filter_rows(SCHEMA, [(1, 9, "s", b"")], where, {"explode": explode})
    assert info.value is raised
    assert calls == [(9, (1, "k"))]
