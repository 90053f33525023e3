"""The statement fast path: one pass over the tokens, and prepared statements.

The server needs four things from every statement's tokens: the strings
the lexer and parser copy into the session arena, the canonical digest
text for ``performance_schema``, the literal values, and the statement's
structure. :func:`scan` produces the first three in one regex pass without
building :class:`~repro.sql.lexer.Token` objects: the pattern captures each
token's text as one group, and the text's first character tells which rule
matched it (``x`` needs the second, to tell ``x'..'`` from a word).
:class:`StatementCache`
covers the last: statements with the same digest text and the same literal
kinds have the same parse tree up to their literals, so each shape is
parsed once, as a template, and compiled once into an executor
(:mod:`repro.server.executor`); later statements only bind their literals.

Both are pure speed-ups. The scan's canonical text equals
:func:`~repro.sql.digest.canonicalize`, and a template parses exactly the
statements :func:`~repro.sql.parser.parse` accepts, with the same errors;
anything the scan cannot handle (a lexer error) falls back to the full
parser, which raises the same error it always did. The cache holds no
statement text and no literal values: an executor keeps only what the
digest text already shows.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .ast import Slot, Statement
from .digest import digest_canonical, render_canonical
from .lexer import KEYWORDS, TOKEN_RULES, TokenType, tokenize
from .parser import parse

#: The lexer's token rules as one group, with leading whitespace folded into
#: each match, then any other non-space character outside the group: a lexer
#: error, which ``findall`` reports as an empty token.
_SCAN_RE = re.compile(
    r"\s*(?:(" + "|".join(rule for _, rule in TOKEN_RULES) + r")|\S)"
)

#: A token's kind from its first character; every other first character
#: starts a word, and so does ``x`` unless ``'`` follows it (a hex literal).
#: ``""`` is a lexer error.
_WORD, _SYMBOL, _NUMBER, _STRING, _ERROR = range(5)
_KIND_OF_FIRST = {
    "": _ERROR,
    "'": _STRING,
    "-": _NUMBER,
    **dict.fromkeys("0123456789", _NUMBER),
    **dict.fromkeys("<>=!(),*;.?", _SYMBOL),
}

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
    kind_of_first = _KIND_OF_FIRST.get
    for token in _SCAN_RE.findall(sql):
        kind = kind_of_first(token[:1], _WORD)
        if kind == _SYMBOL:
            append(token)
        elif kind == _NUMBER:
            append("?")
            literals.append(int(token))
            shape += "n"
        elif kind == _WORD:
            if token[1:2] == "'":  # x'..'
                try:
                    literals.append(bytes.fromhex(token[2:-1]))
                except ValueError:
                    return None
                append("?")
                shape += "h"
                continue
            upper = token.upper()
            if upper in KEYWORDS:
                append(upper)
            else:
                append(token)
                spill.append(token)
                spill.append(token)
        elif kind == _STRING:
            append("?")
            value = token[1:-1]
            literals.append(value)
            shape += "s"
            spill.append(token)
            spill.append(value)
        else:
            return None
    return ScannedStatement(render_canonical(parts), shape, tuple(literals), spill)


# -- prepared statements -----------------------------------------------------

_SLOT_KINDS = {TokenType.NUMBER: "n", TokenType.STRING: "s", TokenType.HEX: "h"}


class StatementCache:
    """Prepared statements keyed on the digest text and literal kinds.

    Statements with the same key have the same parse tree up to their
    literals, so one executor serves them all. A miss parses the statement's
    *template* (:meth:`template`: each literal replaced by a
    :class:`~repro.sql.ast.Slot`); the caller prepares an executor from it
    and stores it (:meth:`store`) only once preparation succeeded, so a
    statement that fails to parse or prepare leaves nothing behind. A hit
    (:meth:`lookup`) returns the executor, which binds only the literals.
    The oldest shape is evicted once :data:`CAPACITY` shapes are held.

    An executor must offer ``is_current(catalog)``: an executor prepared
    against a catalog entry that has since changed is a miss, never served.
    """

    def __init__(self) -> None:
        #: (digest text, literal kinds) -> (digest, executor)
        self._entries: Dict[Tuple[str, str], Tuple[str, object]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, scanned: Optional[ScannedStatement], catalog):
        """The current executor for ``scanned``'s shape, or ``None``."""
        if scanned is None:
            return None
        entry = self._entries.get((scanned.canonical, scanned.shape))
        if entry is None or not entry[1].is_current(catalog):
            return None
        self.hits += 1
        scanned._digest = entry[0]
        return entry[1]

    def template(self, sql: str, scanned: Optional[ScannedStatement]) -> Statement:
        """Parse ``sql`` with its literals as slots (a cache miss).

        ``scanned`` is ``None`` for a statement the lexer rejects; the full
        parser then raises the lexer's error.
        """
        if scanned is None:
            return parse(sql)
        self.misses += 1
        tokens = tokenize(sql)
        slot = 0
        for token in tokens:
            kind = _SLOT_KINDS.get(token.type)
            if kind is not None:
                token.value = Slot(slot, kind)
                slot += 1
        return parse(sql, tokens=tokens)

    def store(self, scanned: ScannedStatement, executor) -> None:
        """Keep ``executor`` for ``scanned``'s shape, evicting the oldest."""
        key = (scanned.canonical, scanned.shape)
        self._entries.pop(key, None)
        if len(self._entries) >= CAPACITY:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = (scanned.digest, executor)

    def __len__(self) -> int:
        return len(self._entries)
