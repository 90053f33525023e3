"""A small SQL substrate: lexer, parser, AST, digests, and a planner.

The dialect covers what the paper's experiments need — ``CREATE TABLE``,
``INSERT``, ``SELECT`` (with ``count(*)`` / ``ashe_sum()`` aggregates,
``WHERE`` conjunctions of comparisons, ``BETWEEN``, and ``MATCH`` keyword
search), ``UPDATE``, and ``DELETE`` — plus the MySQL ``performance_schema``
digest canonicalization that Section 4 and the SPLASHE attack depend on.
"""

from .lexer import Token, TokenType, tokenize
from .ast import (
    Aggregate,
    BetweenCondition,
    Comparison,
    CreateTable,
    Delete,
    Insert,
    FunctionCondition,
    MatchCondition,
    Select,
    Statement,
    Update,
    WhereClause,
    ColumnDef,
)
from .parser import parse
from .digest import canonicalize, digest
from .planner import Plan, PlanKind, plan_shape

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "parse",
    "Statement",
    "CreateTable",
    "ColumnDef",
    "Insert",
    "Select",
    "Update",
    "Delete",
    "WhereClause",
    "Comparison",
    "BetweenCondition",
    "MatchCondition",
    "FunctionCondition",
    "Aggregate",
    "canonicalize",
    "digest",
    "Plan",
    "PlanKind",
    "plan_shape",
]
