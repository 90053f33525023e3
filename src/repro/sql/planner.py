"""A minimal access-path planner.

The planner decides whether a SELECT can be served by a primary-key B+-tree
lookup/range or needs a full scan. The distinction matters for the paper's
Section 3 buffer-pool experiment: index lookups touch a root-to-leaf *path*
of pages, and that path is what the ``ib_buffer_pool`` dump file later
reveals about past SELECTs.

Plans are made once per statement shape, on the statement's template (see
:mod:`repro.sql.fastpath`): a key is a literal position, bound to each
statement's literal at that position, never a value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .ast import BetweenCondition, Comparison, Slot, WhereClause


class PlanKind(enum.Enum):
    """How a SELECT reaches the rows it needs."""

    PK_LOOKUP = "pk_lookup"      # equality on the primary key
    PK_RANGE = "pk_range"        # range predicate on the primary key
    FULL_SCAN = "full_scan"      # everything else


#: A range bound: (literal position, offset added to the literal).
Bound = Tuple[int, int]


@dataclass(frozen=True)
class Plan:
    """Chosen access path for every statement of one SELECT shape.

    ``key`` is the literal position of a lookup's key; ``low`` and ``high``
    bound a range (``None`` is open). ``error`` is the :class:`PlanError`
    message every statement of the shape raises when it is planned.
    """

    kind: PlanKind
    key: Optional[int] = None
    low: Optional[Bound] = None
    high: Optional[Bound] = None
    error: Optional[str] = None


_FULL_SCAN = Plan(kind=PlanKind.FULL_SCAN)


def _is_number(term: object) -> bool:
    return type(term) is Slot and term.kind == "n"


def plan_shape(where: Optional[WhereClause], primary_key: Optional[str]) -> Plan:
    """Plan a SELECT template's WHERE clause given the table's primary key.

    The first condition on the primary key with integer operands decides:
    ``=`` a lookup, ``<``/``<=``/``>``/``>=`` an open range, ``BETWEEN`` a
    closed one (whose bounds must be numbers). Only a number literal is an
    integer: strings, hex and NULL never are.
    """
    if primary_key is None or where is None:
        return _FULL_SCAN
    for cond in where.conditions:
        if cond.column != primary_key:
            continue
        if isinstance(cond, BetweenCondition):
            if not _is_number(cond.low) or not _is_number(cond.high):
                return Plan(
                    kind=PlanKind.PK_RANGE,
                    error="BETWEEN bounds on the primary key must be integers",
                )
            return Plan(
                kind=PlanKind.PK_RANGE,
                low=(cond.low.index, 0),
                high=(cond.high.index, 0),
            )
        if isinstance(cond, Comparison) and _is_number(cond.value):
            index = cond.value.index
            if cond.op == "=":
                return Plan(kind=PlanKind.PK_LOOKUP, key=index)
            if cond.op in ("<", "<="):
                return Plan(
                    kind=PlanKind.PK_RANGE, high=(index, -1 if cond.op == "<" else 0)
                )
            if cond.op in (">", ">="):
                return Plan(
                    kind=PlanKind.PK_RANGE, low=(index, 1 if cond.op == ">" else 0)
                )
    return _FULL_SCAN
