"""E4 — inferring SELECT access paths from the buffer-pool dump (paper §3).

Protocol: load an indexed table, issue a sequence of point SELECTs, write
the ``ib_buffer_pool`` dump, then run the access-path inference and score:

* how many of the most recent SELECTs' true root-to-leaf paths appear among
  the inferred paths (recent traversals survive in clean LRU runs), and
* the key-range resolution: each leaf page bounds the queried key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..forensics import infer_access_paths
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture


@dataclass(frozen=True)
class BufferPoolResult:
    """Recovery statistics for the dump-file inference."""

    num_selects: int
    paths_inferred: int
    recent_window: int
    recent_recovered: int
    last_select_recovered: bool

    @property
    def recent_recovery_rate(self) -> float:
        return self.recent_recovered / self.recent_window


def run_buffer_pool_paths(
    table_rows: int = 2_000,
    num_selects: int = 30,
    recent_window: int = 5,
    seed: int = 0,
) -> BufferPoolResult:
    """Issue point SELECTs, dump the pool, and score path recovery.

    The dump lists the frame pool's actual resident pages; the tree's
    4 KB pages split on their byte budget, so the default 2,000 rows make
    a two-level index (root plus leaf on every path).
    """
    rng = random.Random(seed)
    server = MySQLServer()
    session = server.connect("reader")
    server.execute(session, "CREATE TABLE items (id INT PRIMARY KEY, v INT)")
    for start in range(0, table_rows, 100):
        values = ", ".join(
            f"({i}, {i * 7})" for i in range(start, min(start + 100, table_rows))
        )
        server.execute(session, f"INSERT INTO items (id, v) VALUES {values}")

    true_paths: List[Tuple[int, ...]] = []
    for _ in range(num_selects):
        key = rng.randrange(table_rows)
        server.execute(session, f"SELECT v FROM items WHERE id = {key}")
        # Ground truth via a replay of the same lookup: it touches the
        # same pages in the same order, so the LRU tail still ends with
        # this lookup.
        _, path = server.engine.btree("items").get(key)
        true_paths.append(tuple(path.page_ids))

    server.dump_buffer_pool()
    snap = capture(server, AttackScenario.DISK_THEFT)
    inferred = {p.page_ids for p in infer_access_paths(snap.buffer_pool_dump)}

    recent = true_paths[-recent_window:]
    recovered = sum(1 for path in recent if path in inferred)
    return BufferPoolResult(
        num_selects=num_selects,
        paths_inferred=len(inferred),
        recent_window=recent_window,
        recent_recovered=recovered,
        last_select_recovered=true_paths[-1] in inferred,
    )
