"""The statement fast path: one pass over the tokens, and a parse cache.

The server needs four things from every statement's tokens: the strings
the lexer and parser copy into the session arena, the canonical digest
text for ``performance_schema``, the literal values, and the parse tree.
:func:`scan` produces the first three in one regex pass without building
:class:`~repro.sql.lexer.Token` objects. :class:`StatementCache` produces
the last: statements with the same digest text and the same literal kinds
have the same parse tree up to their literals, so the tree is parsed once
per shape and later statements only bind their literals into it.

Both are pure speed-ups. The scan's canonical text equals
:func:`~repro.sql.digest.canonicalize` and a bound tree equals
:func:`~repro.sql.parser.parse` on every input; anything the fast path
cannot handle (a lexer error) falls back to the full path, which raises the
same error it always did. The cache holds no statement text and no literal
values: a template keeps only what the digest text already shows.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Dict, List, Optional, Tuple

from .ast import Statement
from .digest import digest_canonical, render_canonical
from .lexer import KEYWORDS, TOKEN_RULES, TokenType, tokenize
from .parser import parse

#: The lexer's token rules, one group each, with leading whitespace folded
#: into each match, then any other non-space character (a lexer error).
_SCAN_RE = re.compile(
    r"\s*(?:" + "|".join(f"({rule})" for _, rule in TOKEN_RULES) + r"|(\S))"
)

_LITERAL_TYPES = (TokenType.NUMBER, TokenType.STRING, TokenType.HEX)

#: Statement shapes one server's cache keeps. The busiest server in
#: perfbench sees 22 shapes (leak_pipeline; oltp_txn and point_read_evict
#: see 6 each) and the busiest one in the test suite 52, so every shape
#: of those stays cached.
CAPACITY = 64


class ScannedStatement:
    """What one pass over a statement's tokens yields.

    ``spill`` lists, in token order, the two strings each identifier and
    string literal leaves in the session arena: the lexer's raw text and
    the parser's value. ``shape`` has one letter per literal (``n``umber,
    ``s``tring, ``h``ex), so statements that share ``canonical`` and
    ``shape`` share a parse tree up to ``literals``.
    """

    __slots__ = ("canonical", "shape", "literals", "spill", "_digest")

    def __init__(self, canonical: str, shape: str, literals: tuple,
                 spill: List[str]) -> None:
        self.canonical = canonical
        self.shape = shape
        self.literals = literals
        self.spill = spill
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """The statement's ``performance_schema`` digest."""
        if self._digest is None:
            self._digest = digest_canonical(self.canonical)
        return self._digest


def scan(sql: str) -> Optional[ScannedStatement]:
    """Scan ``sql`` once; ``None`` when :func:`tokenize` would raise."""
    parts: List[str] = []
    literals: list = []
    shape = ""
    spill: List[str] = []
    append = parts.append
    for hex_, string, number, word, op, punct, _ in _SCAN_RE.findall(sql):
        if word:
            upper = word.upper()
            if upper in KEYWORDS:
                append(upper)
            else:
                append(word)
                spill.append(word)
                spill.append(word)
        elif punct or op:
            append(punct or op)
        elif number:
            append("?")
            literals.append(int(number))
            shape += "n"
        elif string:
            append("?")
            value = string[1:-1]
            literals.append(value)
            shape += "s"
            spill.append(string)
            spill.append(value)
        elif hex_:
            try:
                literals.append(bytes.fromhex(hex_[2:-1]))
            except ValueError:
                return None
            append("?")
            shape += "h"
        else:
            return None
    return ScannedStatement(render_canonical(parts), shape, tuple(literals), spill)


# -- templates ------------------------------------------------------------


class _Slot:
    """Stands for the ``index``-th literal while a template is parsed."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


#: Rebuilds one node of a statement from ``(literals, sql)``.
_Builder = Callable[[tuple, str], object]


def _compile(node) -> Tuple[_Builder, bool]:
    """A builder for ``node`` and whether it depends on the literals.

    Nodes that hold no slot are shared by every bound statement; the AST
    is frozen, so sharing is safe.
    """
    if type(node) is _Slot:
        index = node.index
        return (lambda values, sql: values[index]), True
    if type(node) is tuple:
        compiled = [_compile(item) for item in node]
        if not any(dynamic for _, dynamic in compiled):
            return (lambda values, sql: node), False
        builders = [builder for builder, _ in compiled]
        return (lambda values, sql: tuple([b(values, sql) for b in builders])), True
    if dataclasses.is_dataclass(node):
        cls = type(node)
        compiled = [_compile(getattr(node, f.name)) for f in dataclasses.fields(node)]
        if not any(dynamic for _, dynamic in compiled):
            return (lambda values, sql: node), False
        builders = [builder for builder, _ in compiled]
        return (lambda values, sql: cls(*[b(values, sql) for b in builders])), True
    return (lambda values, sql: node), False


def _compile_statement(template: Statement) -> _Builder:
    """A builder for a whole statement: ``raw`` is the bound statement's
    text, every other field is rebuilt by :func:`_compile`."""
    cls = type(template)
    builders = [
        (lambda values, sql: sql) if f.name == "raw"
        else _compile(getattr(template, f.name))[0]
        for f in dataclasses.fields(template)
    ]
    return lambda values, sql: cls(*[b(values, sql) for b in builders])


class StatementCache:
    """Parsed statements keyed on the digest text and literal kinds.

    A miss parses the statement with each literal replaced by a slot and
    compiles the tree into a builder; a hit calls the builder with the new
    literals. Statements that fail to parse are never cached, so every
    error comes from :func:`parse` itself. The oldest shape is evicted
    once :data:`CAPACITY` shapes are held.
    """

    def __init__(self) -> None:
        #: (digest text, literal kinds) -> (digest, builder)
        self._entries: Dict[Tuple[str, str], Tuple[str, _Builder]] = {}
        self.hits = 0
        self.misses = 0

    def parse(self, sql: str, scanned: Optional[ScannedStatement]) -> Statement:
        """The parse tree of ``sql``, whose scan is ``scanned``.

        ``scanned`` is ``None`` for a statement the lexer rejects; the full
        parser then raises the lexer's error.
        """
        if scanned is None:
            return parse(sql)
        key = (scanned.canonical, scanned.shape)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            scanned._digest, build = entry
            return build(scanned.literals, sql)
        self.misses += 1
        tokens = tokenize(sql)
        slot = 0
        for token in tokens:
            if token.type in _LITERAL_TYPES:
                token.value = _Slot(slot)
                slot += 1
        build = _compile_statement(parse(sql, tokens=tokens))
        if len(self._entries) >= CAPACITY:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = (scanned.digest, build)
        return build(scanned.literals, sql)

    def __len__(self) -> int:
        return len(self._entries)
