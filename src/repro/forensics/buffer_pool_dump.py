"""B+-tree access-path inference from the buffer-pool dump file.

Paper §3: the ``ib_buffer_pool`` file "reveals information about several
previous SELECT queries, such as the paths through the B+ tree that MySQL
took when evaluating them."

The dump lists resident pages in LRU order. A point lookup touches a
root-to-leaf chain (levels ``h-1, h-2, ..., 0``), and those pages sit
adjacently in recency order; :func:`infer_access_paths` walks the MRU-first
list and carves out maximal strictly-descending level chains per tablespace,
which are exactly the recent traversal paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ForensicsError
from ..storage.paged import BufferPoolDump, PageRef


@dataclass(frozen=True)
class InferredAccessPath:
    """One inferred root-to-leaf traversal."""

    space_id: int
    page_ids: Tuple[int, ...]
    levels: Tuple[int, ...]

    @property
    def reaches_leaf(self) -> bool:
        return bool(self.levels) and self.levels[-1] == 0

    @property
    def depth(self) -> int:
        return len(self.page_ids)


def parse_dump_text(text: str) -> BufferPoolDump:
    """Parse the on-disk dump format back into a :class:`BufferPoolDump`."""
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ForensicsError(f"bad dump line {line_no}: {line!r}")
        try:
            space_id, page_id, level, count = (int(p) for p in parts)
        except ValueError as exc:
            raise ForensicsError(f"bad dump line {line_no}: {line!r}") from exc
        entries.append(
            PageRef(
                space_id=space_id,
                page_id=page_id,
                level=level,
                access_count=count,
            )
        )
    return BufferPoolDump(entries=tuple(entries))


def infer_access_paths(
    dump: BufferPoolDump, min_depth: int = 2
) -> List[InferredAccessPath]:
    """Carve recent B+-tree traversals out of the LRU order.

    Looks for maximal runs of same-tablespace pages with strictly
    decreasing levels ending at level 0 (a leaf) — the signature of an
    index descent. Runs shorter than ``min_depth`` are discarded (a lone
    leaf page says little).

    Note the inherent fuzziness the paper implies ("several previous SELECT
    queries"): only the most recent traversals survive in clean form;
    earlier ones are partially overwritten in recency order. The benchmark
    for experiment E4 quantifies exactly this decay.
    """
    paths: List[InferredAccessPath] = []
    run: List[PageRef] = []

    def flush() -> None:
        if len(run) >= min_depth and run[-1].level == 0:
            paths.append(
                InferredAccessPath(
                    space_id=run[0].space_id,
                    page_ids=tuple(r.page_id for r in run),
                    levels=tuple(r.level for r in run),
                )
            )
        run.clear()

    # entries are MRU-first; a root->leaf descent appears as consecutive
    # entries with ascending recency, i.e. in MRU-first order the leaf comes
    # first. Scan in reverse (LRU-first) so descents read root->leaf.
    for ref in reversed(dump.entries):
        if run and (
            ref.space_id != run[-1].space_id or ref.level >= run[-1].level
        ):
            flush()
        run.append(ref)
    flush()
    return paths


def leaf_pages_touched(dump: BufferPoolDump, space_id: Optional[int] = None) -> List[int]:
    """Leaf (level-0) pages resident in the pool — the data actually read."""
    return [
        ref.page_id
        for ref in dump.entries
        if ref.level == 0 and (space_id is None or ref.space_id == space_id)
    ]
