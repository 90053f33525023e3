"""Tests for memory-scan and buffer-pool-dump forensics."""

import pytest

from repro.errors import ForensicsError
from repro.forensics import (
    infer_access_paths,
    parse_dump_text,
    scan_for_query,
    scan_for_tokens,
)
from repro.forensics.buffer_pool_dump import leaf_pages_touched
from repro.forensics.memory_scan import carve_statements_containing
from repro.memory import MemoryDump
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture


class TestMemoryScan:
    def test_residue_report_counts(self):
        query = "SELECT zzqqx FROM t"
        data = f"{query}||zzqqx||zzqqx||other".encode()
        report = scan_for_query(MemoryDump(data), query, "zzqqx")
        assert report.full_query_locations == 1
        assert report.marker_only_locations == 2
        assert report.total_marker_locations == 3
        assert report.leaks

    def test_no_residue(self):
        report = scan_for_query(MemoryDump(b"nothing here"), "SELECT x", "x-marker")
        assert report.full_query_locations == 0
        assert not report.leaks

    def test_token_carving(self):
        token = "ab" * 20  # 40 hex chars
        dump = MemoryDump(f"SELECT id FROM t WHERE MATCH(tags, '{token}')".encode())
        carved = scan_for_tokens(dump)
        assert any(token in hexstr for _, hexstr in carved)

    def test_short_hex_ignored(self):
        dump = MemoryDump(b"deadbeef is too short")
        assert scan_for_tokens(dump, min_hex_length=32) == []

    def test_carve_statements_containing(self):
        dump = MemoryDump(b"\x00SELECT a FROM t WHERE x = 'needle'\x00SELECT b FROM u\x00")
        hits = carve_statements_containing(dump, "needle")
        assert len(hits) == 1

    def test_real_server_residue(self):
        server = MySQLServer()
        session = server.connect()
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        marker = "xq7marker9z"
        query = f"SELECT v FROM t WHERE v = '{marker}'"
        server.execute(session, query)
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        report = scan_for_query(snap.require("memory_dump"), query, marker)
        assert report.full_query_locations >= 2   # net buffer + arena + history
        assert report.marker_only_locations >= 2  # token/parser/executor copies


class TestBufferPoolDumpForensics:
    def make_dump(self):
        server = MySQLServer()
        session = server.connect()
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        # ~1 KB rows: four per 4 KB leaf, so 100 rows make a two-level tree.
        for i in range(100):
            server.execute(
                session, f"INSERT INTO t (id, v) VALUES ({i}, '{'v' * 1000}')"
            )
        server.execute(session, "SELECT v FROM t WHERE id = 42")
        return server, server.dump_buffer_pool()

    def test_text_roundtrip(self):
        _, dump = self.make_dump()
        parsed = parse_dump_text(dump.to_text())
        assert parsed.entries == dump.entries

    def test_bad_line_rejected(self):
        with pytest.raises(ForensicsError):
            parse_dump_text("1,2,3\n")
        with pytest.raises(ForensicsError):
            parse_dump_text("a,b,c,d\n")

    def test_comments_and_blanks_skipped(self):
        parsed = parse_dump_text("# header\n\n1,2,0,5\n")
        assert len(parsed.entries) == 1

    def test_infer_recent_lookup_path(self):
        server, dump = self.make_dump()
        paths = infer_access_paths(dump)
        assert paths, "expected at least one inferred traversal"
        # The most recent traversal is the id=42 lookup: root-to-leaf with
        # strictly descending levels, ending at a leaf.
        last = paths[-1]
        assert last.reaches_leaf
        assert last.depth == server.engine.btree("t").clustered.height == 2
        assert list(last.levels) == sorted(last.levels, reverse=True)

    def test_inferred_path_matches_true_pages(self):
        server, dump = self.make_dump()
        # Ground truth: repeat the same lookup and compare page sets.
        _, true_path = server.engine.get("t", 42)
        paths = infer_access_paths(dump)
        assert tuple(true_path.page_ids) == paths[-1].page_ids

    def test_leaf_pages_touched(self):
        _, dump = self.make_dump()
        leaves = leaf_pages_touched(dump)
        assert leaves
        assert all(isinstance(p, int) for p in leaves)

    def test_min_depth_filter(self):
        _, dump = self.make_dump()
        deep_only = infer_access_paths(dump, min_depth=100)
        assert deep_only == []
