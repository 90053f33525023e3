"""Memory-dump scanning: the Section 5 residue analysis.

Implements the measurement the paper performed after dumping the MySQL
process: counting the distinct heap locations holding (a) the full text of a
past query and (b) a marker string "by itself", plus carving search tokens
(long hex strings) that break token-based encrypted databases (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ForensicsError
from ..memory import MemoryDump

#: ``bytes.translate`` table: lowercase hex digits to ``h``, all else ``.``.
_HEX_MASK = bytes(
    0x68 if chr(i) in "0123456789abcdef" else 0x2E for i in range(256)
)


@dataclass(frozen=True)
class MemoryResidueReport:
    """Result of the Section 5 residue scan for one marker query."""

    query: str
    marker: str
    full_query_locations: int
    marker_only_locations: int
    total_marker_locations: int

    @property
    def leaks(self) -> bool:
        """The paper's finding: both counts were >= 3 in MySQL."""
        return self.full_query_locations >= 1 or self.marker_only_locations >= 1


def scan_for_query(dump: MemoryDump, query: str, marker: str) -> MemoryResidueReport:
    """Count residue locations for ``query`` and its random ``marker``.

    Mirrors the paper's accounting: full-query copies are occurrences of the
    complete statement text; marker-only copies are occurrences of the
    random string that are *not* inside a full-query copy.
    """
    full = dump.count_locations(query)
    standalone = dump.locations_containing_only(marker, query)
    return MemoryResidueReport(
        query=query,
        marker=marker,
        full_query_locations=full,
        marker_only_locations=standalone,
        total_marker_locations=dump.count_locations(marker),
    )


def scan_for_tokens(dump: MemoryDump, min_hex_length: int = 32) -> List[Tuple[int, str]]:
    """Carve candidate query tokens (long lowercase-hex runs) from a dump.

    Encrypted-database clients embed trapdoor tokens / ORE ciphertexts in
    the SQL they send; those strings end up in the same heap locations as
    any other query text. Returns ``(offset, hex_string)`` pairs: each
    run of at least ``min_hex_length`` hex bytes, whole, in dump order.
    """
    if min_hex_length < 1:
        raise ForensicsError(f"token length must be positive, got {min_hex_length}")
    data = dump.data
    # One pass maps every byte to hex or not; each token is then a run of
    # at least ``min_hex_length`` hex bytes, found by substring search.
    mapped = data.translate(_HEX_MASK)
    needle = b"h" * min_hex_length
    tokens = []
    start = mapped.find(needle)
    while start != -1:
        end = mapped.find(b".", start + min_hex_length)
        if end == -1:
            end = len(mapped)
        tokens.append((start, data[start:end].decode("ascii")))
        start = mapped.find(needle, end)
    return tokens


def carve_statements_containing(dump: MemoryDump, needle: str) -> List[str]:
    """All carved SQL statements that mention ``needle``."""
    return [
        text for _, text in dump.carve_sql() if needle in text
    ]
