"""E6 — the Section 5 memory-residue experiment.

Paper protocol, verbatim: "First, we issued a SELECT query with a random
string as the column name. This random string appears nowhere in the
database, thus the query does not match any rows. Then, we issued 100 SELECT
queries which matched some rows and 900 that did not. Then, we inserted 500
random rows and made 1,000 more SELECT queries, waited around twenty minutes
and made 100,000 more SELECT queries. After this, we dumped the memory of
the MySQL process. The full text of the original query appeared in three
distinct locations in memory, and the random string appeared in three
additional locations by itself." The experiment was repeated with the random
string as a WHERE-clause parameter instead of a column name.

``run_memory_residue`` replays this protocol against the simulated server
(with a ``scale`` knob for quick runs) for both variants, and an optional
``secure_delete`` ablation showing the residue collapse when freed memory is
zeroed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List

from ..errors import CatalogError
from ..forensics import scan_for_query
from ..forensics.memory_scan import MemoryResidueReport
from ..server import MySQLServer, ServerConfig, Session
from ..snapshot import AttackScenario, capture

#: Paper workload phases (queries), scaled by the ``scale`` parameter.
PHASE_MATCHING = 100
PHASE_NON_MATCHING = 900
PHASE_INSERT_ROWS = 500
PHASE_AFTER_INSERT = 1_000
PHASE_WAIT_SECONDS = 20 * 60
PHASE_FINAL = 100_000

#: The paper's findings.
PAPER_FULL_QUERY_LOCATIONS = 3
PAPER_MARKER_ONLY_LOCATIONS = 3


@dataclass(frozen=True)
class ResidueResult:
    """Residue counts for both experiment variants."""

    column_variant: MemoryResidueReport
    where_variant: MemoryResidueReport
    total_workload_statements: int
    paper_full_locations: int = PAPER_FULL_QUERY_LOCATIONS
    paper_marker_locations: int = PAPER_MARKER_ONLY_LOCATIONS

    @property
    def reproduces_paper(self) -> bool:
        """Both variants show >= 3 full-text and >= 3 marker-only copies."""
        return all(
            report.full_query_locations >= PAPER_FULL_QUERY_LOCATIONS
            and report.marker_only_locations >= PAPER_MARKER_ONLY_LOCATIONS
            for report in (self.column_variant, self.where_variant)
        )


def _random_marker(rng: random.Random, length: int = 16) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=length))


def _run_workload(
    server: MySQLServer,
    workers: List[Session],
    rng: random.Random,
    num_queries: int,
    matching_fraction: float,
    table_rows: int,
) -> None:
    """Issue ``num_queries`` SELECTs round-robin across worker sessions."""
    for i in range(num_queries):
        session = workers[i % len(workers)]
        if rng.random() < matching_fraction:
            key = rng.randrange(1, table_rows + 1)
            server.execute(session, f"SELECT v FROM corpus WHERE id = {key}")
        else:
            key = table_rows + 1 + rng.randrange(10**6)
            server.execute(session, f"SELECT v FROM corpus WHERE id = {key}")


def run_memory_residue(
    scale: float = 1.0,
    secure_delete: bool = False,
    num_workers: int = 8,
    seed: int = 0,
) -> ResidueResult:
    """Replay the Section 5 protocol and scan the final memory dump.

    ``scale`` multiplies every workload phase (1.0 = the paper's 102,000
    statements; tests use ~0.01). The marker query is issued on its own
    connection, which then idles — matching how a victim's long-lived
    connection coexists with the rest of the workload (MySQL "can create
    dozens of threads").
    """
    rng = random.Random(seed)
    server = MySQLServer(ServerConfig(secure_delete=secure_delete))
    setup = server.connect("loader")
    server.execute(setup, "CREATE TABLE corpus (id INT PRIMARY KEY, v TEXT)")
    initial_rows = 200
    for start in range(0, initial_rows, 50):
        values = ", ".join(
            f"({i + 1}, 'row{i + 1}')" for i in range(start, start + 50)
        )
        server.execute(setup, f"INSERT INTO corpus (id, v) VALUES {values}")

    victim_a = server.connect("victim-a")  # column-name variant
    victim_b = server.connect("victim-b")  # WHERE-parameter variant
    workers = [server.connect(f"worker{i}") for i in range(num_workers)]

    marker_a = _random_marker(rng)
    query_a = f"SELECT {marker_a} FROM corpus WHERE id = 1"
    try:
        server.execute(victim_a, query_a)
    except CatalogError:
        pass  # unknown column - exactly the paper's setup

    marker_b = _random_marker(rng)
    query_b = f"SELECT v FROM corpus WHERE v = '{marker_b}'"
    server.execute(victim_b, query_b)  # matches no rows

    def scaled(n: int) -> int:
        return max(1, int(n * scale))

    total = 0
    # Phase 1: 100 matching + 900 non-matching.
    _run_workload(server, workers, rng, scaled(PHASE_MATCHING), 1.0, initial_rows)
    _run_workload(server, workers, rng, scaled(PHASE_NON_MATCHING), 0.0, initial_rows)
    total += scaled(PHASE_MATCHING) + scaled(PHASE_NON_MATCHING)

    # Phase 2: insert 500 random rows.
    insert_rows = scaled(PHASE_INSERT_ROWS)
    for start in range(0, insert_rows, 50):
        values = ", ".join(
            f"({initial_rows + i + 1}, 'r{rng.randrange(10**9)}')"
            for i in range(start, min(start + 50, insert_rows))
        )
        server.execute(setup, f"INSERT INTO corpus (id, v) VALUES {values}")

    # Phase 3: 1,000 queries, ~20 minute wait, 100,000 queries.
    _run_workload(
        server, workers, rng, scaled(PHASE_AFTER_INSERT), 0.5,
        initial_rows + insert_rows,
    )
    server.clock.advance(PHASE_WAIT_SECONDS)
    _run_workload(
        server, workers, rng, scaled(PHASE_FINAL), 0.1,
        initial_rows + insert_rows,
    )
    total += scaled(PHASE_AFTER_INSERT) + scaled(PHASE_FINAL)

    # Dump the process memory and scan (the paper's measurement).
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    dump = snap.require("memory_dump")
    return ResidueResult(
        column_variant=scan_for_query(dump, query_a, marker_a),
        where_variant=scan_for_query(dump, query_b, marker_b),
        total_workload_statements=total,
    )
