"""``repro-demo``: generate a directory of stolen-disk artifacts.

Runs a small victim workload on a fresh simulated server and writes out what
a disk thief (plus, with ``--with-memory``, a VM-snapshot attacker) would
hold:

* ``redo.log`` / ``undo.log`` — raw circular-log images
* ``binlog.txt``             — the mysqlbinlog-format dump
* ``ib_buffer_pool``         — the buffer-pool dump file
* ``<table>.ibd``            — tablespace images
* ``memory.dump``            — the process heap (optional)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from ..server import MySQLServer, ServerConfig
from ..snapshot import AttackScenario, capture
from ..workloads import customer_insert_statements, generate_customers
from ..workloads.tables import CUSTOMERS_DDL


def build_victim_server(seed: int = 0) -> MySQLServer:
    """The canned victim: a customers table with reads and writes."""
    server = MySQLServer(ServerConfig(query_cache_enabled=True))
    session = server.connect("webapp")
    server.execute(session, CUSTOMERS_DDL)
    for statement in customer_insert_statements(generate_customers(120, seed=seed)):
        server.execute(session, statement)
    for statement in (
        "SELECT name FROM customers WHERE id = 7",
        "SELECT * FROM customers WHERE state = 'IN'",
        "SELECT count(*) FROM customers WHERE age >= 40",
        "UPDATE customers SET balance = 0 WHERE id = 3",
        "DELETE FROM customers WHERE id = 99",
        "SELECT name FROM customers WHERE state = 'AZ'",
    ):
        server.execute(session, statement)
    server.dump_buffer_pool()
    return server


def write_artifacts(server: MySQLServer, out_dir: Path, with_memory: bool) -> list:
    """Write every artifact file; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = (
        AttackScenario.VM_SNAPSHOT if with_memory else AttackScenario.DISK_THEFT
    )
    snap = capture(server, scenario)
    written = []

    def emit(name: str, data) -> None:
        path = out_dir / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        written.append(path)

    emit("redo.log", snap.get("redo_log_raw") or b"")
    emit("undo.log", snap.get("undo_log_raw") or b"")
    emit("binlog.txt", snap.get("binlog_text") or "")
    pool_dump = snap.get("buffer_pool_dump")
    if pool_dump is not None:
        emit("ib_buffer_pool", pool_dump.to_text())
    for table, image in (snap.get("tablespace_images") or {}).items():
        emit(f"{table}.ibd", image)
    memory_dump = snap.get("memory_dump")
    if with_memory and memory_dump is not None:
        emit("memory.dump", memory_dump.data)
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-demo", description=__doc__.splitlines()[0]
    )
    parser.add_argument("out_dir", type=Path, help="directory to write artifacts to")
    parser.add_argument(
        "--with-memory",
        action="store_true",
        help="also capture the process memory (VM-snapshot scenario)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        server = build_victim_server(seed=args.seed)
        written = write_artifacts(server, args.out_dir, args.with_memory)
    except (OSError, ReproError) as exc:
        print(f"repro-demo: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
