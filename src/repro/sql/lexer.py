"""SQL tokenizer.

Produces a flat token stream with source positions. Literals keep both their
parsed value and their raw text: the raw text is what ends up verbatim in the
general log, binlog, and the process heap — the whole point of the paper —
while the parsed value feeds execution.
"""

from __future__ import annotations

import enum
import re
from typing import List, Union

from ..errors import LexerError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "PRIMARY", "KEY",
    "INT", "TEXT", "BLOB", "BETWEEN", "MATCH", "COUNT", "ASHE_SUM",
    "SUM", "MIN", "MAX", "AVG", "GROUP",
    "ORDER", "BY", "LIMIT", "NOT", "NULL", "BEGIN", "COMMIT", "ROLLBACK",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    HEX = "hex"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


class Token:
    """One lexical token with its raw source text and position.

    A hand-rolled slotted class rather than a dataclass: tokens are the
    single most-allocated object in the hot path (every statement is a
    dozen of them), and the frozen-dataclass ``__init__`` costs ~3x a
    plain one.
    """

    __slots__ = ("type", "text", "value", "position")

    def __init__(
        self,
        type: TokenType,
        text: str,
        value: Union[str, int, bytes, None],
        position: int,
    ) -> None:
        self.type = type
        self.text = text
        self.value = value
        self.position = position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.type is other.type
            and self.text == other.text
            and self.value == other.value
            and self.position == other.position
        )

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, text={self.text!r}, "
            f"value={self.value!r}, position={self.position!r})"
        )

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text.upper() == word


# The token rules, in match order; the statement fast path
# (:mod:`repro.sql.fastpath`) scans with the same rules. Order matters only
# between ``hex`` and ``word``, the two rules whose tokens can start with the
# same character: ``hex`` first, so a lone ``x`` stays an identifier but
# ``x'..'`` lexes as a literal. Every other rule's first characters start no
# other rule, so the rest are ordered for speed: an alternation tries its
# rules in turn, and punctuation and numbers fill multi-row INSERTs.
# Explicit ASCII digits only — str.isdigit() accepts
# unicode digits like "²" that int() then rejects (found by fuzzing).
# ``[^\W\d]\w*`` is the regex spelling of the historical scanner's
# identifier rule (leading isalpha()/underscore, isalnum()/underscore
# continuation, unicode included). "?" appears in canonicalized digest
# text; accepting it keeps the lexer total over its own canonical output
# (the parser still rejects it).
TOKEN_RULES = (
    ("punct", r"[(),*;.?]"),
    ("num", r"-?[0-9]+"),
    ("str", r"'[^']*'"),
    ("hex", r"x'[^']*'"),
    ("word", r"[^\W\d]\w*"),
    ("op", r"<=|>=|!=|<>|[=<>]"),
)

_MASTER_RE = re.compile(
    r"(?P<ws>\s+)|" + "|".join(f"(?P<{name}>{rule})" for name, rule in TOKEN_RULES)
)


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`LexerError` on invalid input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER_RE.match
    pos = 0
    n = len(sql)
    while pos < n:
        m = match(sql, pos)
        if m is None:
            # ``\s`` matches exactly the characters str.isspace() accepts,
            # so whatever is left here is a lexer error.
            ch = sql[pos]
            if ch == "'":
                raise LexerError("unterminated string literal", pos)
            if ch == "x" and pos + 1 < n and sql[pos + 1] == "'":
                raise LexerError("unterminated hex literal", pos)
            raise LexerError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        raw = m.group()
        if kind == "ws":
            pos = m.end()
            continue
        if kind == "word":
            token_type = (
                TokenType.KEYWORD if raw.upper() in KEYWORDS
                else TokenType.IDENTIFIER
            )
            append(Token(token_type, raw, raw, pos))
        elif kind == "num":
            append(Token(TokenType.NUMBER, raw, int(raw), pos))
        elif kind == "str":
            append(Token(TokenType.STRING, raw, raw[1:-1], pos))
        elif kind == "hex":
            try:
                value = bytes.fromhex(raw[2:-1])
            except ValueError:
                raise LexerError(f"invalid hex literal {raw!r}", pos) from None
            append(Token(TokenType.HEX, raw, value, pos))
        elif kind == "op":
            append(Token(TokenType.OPERATOR, raw, raw, pos))
        else:
            append(Token(TokenType.PUNCT, raw, raw, pos))
        pos = m.end()
    append(Token(TokenType.EOF, "", None, n))
    return tokens
