"""WAL snapshot artifacts + the forensic readers that consume them."""

import pytest

from repro.forensics.wal_reader import (
    parse_wal_segments,
    read_checkpoint_state,
    read_checkpoints,
    reconstruct_wal_history,
    recovery_exposure,
)
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, StateQuadrant, capture, default_registry
from repro.wal import artifacts as wal_artifacts


def run_workload(server, rows=3):
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    for i in range(rows):
        server.execute(
            session, f"INSERT INTO t (id, v) VALUES ({i}, 'secret-{i}')"
        )
    server.execute(session, "UPDATE t SET v = 'changed-0' WHERE id = 0")
    server.execute(session, "DELETE FROM t WHERE id = 1")
    return server


@pytest.fixture
def default_server():
    return run_workload(MySQLServer())


@pytest.fixture
def tmp_server(tmp_path):
    config = ServerConfig(data_dir=str(tmp_path / "db"))
    server = run_workload(MySQLServer(config=config))
    yield server
    server.close()


class TestProviders:
    def test_registered_with_expected_metadata(self):
        registry = default_registry()
        segs = registry.get("wal_segments")
        assert segs.quadrant is StateQuadrant.PERSISTENT_DB
        assert segs.artifact_class == "logs"
        assert set(segs.spec_sinks) == {"redo_log", "undo_log"}
        assert not segs.requires_escalation

        dpt = registry.get("dirty_page_table")
        assert dpt.quadrant is StateQuadrant.VOLATILE_DB
        assert dpt.artifact_class == "data_structures"
        assert dpt.requires_escalation

        rec = registry.get("recovery_report")
        assert rec.quadrant is StateQuadrant.PERSISTENT_DB
        assert rec.artifact_class == "logs"

    def test_providers_have_forensic_readers(self):
        for provider in wal_artifacts.providers():
            assert provider.forensic_reader.startswith("repro.forensics")

    def test_disk_theft_captures_wal_segments(self, default_server):
        snap = capture(default_server, AttackScenario.DISK_THEFT)
        segments = snap.get("wal_segments")
        assert segments and all(isinstance(v, bytes) for v in segments.values())

    def test_dirty_page_table_gated_on_paged_and_escalation(self, tmp_server):
        # Unescalated SQL injection: withheld.
        snap = capture(tmp_server, AttackScenario.SQL_INJECTION)
        assert snap.get("dirty_page_table") is None
        # Escalated: the live (table, page, rec-LSN) triples.
        snap = capture(tmp_server, AttackScenario.SQL_INJECTION, escalated=True)
        assert snap.get("dirty_page_table") is not None

    def test_recovery_report_absent_on_clean_server(self, default_server):
        snap = capture(default_server, AttackScenario.DISK_THEFT)
        assert snap.get("recovery_report") is None

    def test_recovery_report_captured_after_recovery(self, tmp_path):
        from repro.engine import StorageEngine
        from repro.wal.recovery import recover_engine

        data_dir = str(tmp_path / "crashed")
        engine = StorageEngine(data_dir=data_dir, wal_sync=False)
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"v")
        engine.commit(txn)
        engine.simulate_crash()
        recovered = recover_engine(data_dir, wal_sync=False)

        server = MySQLServer(
            config=ServerConfig(data_dir=str(tmp_path / "other"))
        )
        server.engine.close()
        server.engine = recovered  # a server brought up on the recovered engine
        snap = capture(server, AttackScenario.DISK_THEFT)
        report = snap.get("recovery_report")
        assert report is not None
        assert report["committed_txns"] == [txn.txn_id]
        recovered.close()


class TestForensicReaders:
    def test_parse_wal_segments_decodes_all_kinds(self, default_server):
        records = parse_wal_segments(default_server.engine.wal_segments())
        kinds = {r.kind for r in records}
        assert {"redo", "undo", "txn_begin", "txn_commit", "table_register"} <= kinds
        redo = [r for r in records if r.kind == "redo"]
        assert all(r.table == "t" for r in redo)
        assert all(r.txn_id is not None for r in redo)

    def test_history_survives_circular_log_eviction(self, tmp_path):
        # The durable WAL is the superset surface: shrink the circular
        # redo window until it evicts, then reconstruct the full timeline
        # from the flushed segments anyway.
        from repro.engine import StorageEngine

        engine = StorageEngine(redo_capacity=256, undo_capacity=256)
        engine.register_table("t")
        for i in range(30):
            txn = engine.begin()
            engine.insert(txn, "t", i, b"x" * 40)
            engine.commit(txn)
        assert engine.redo_log.total_evicted > 0
        history = reconstruct_wal_history(engine.wal.segments())
        assert [key for _, _, key, _, _, _ in history] == list(range(30))

    def test_read_checkpoints_exposes_dirty_pages_and_active_txns(
        self, tmp_server
    ):
        engine = tmp_server.engine
        txn = engine.begin()
        engine.insert(txn, "t", 100, b"inflight")
        engine.checkpoint()
        views = read_checkpoints(engine.wal_segments())
        assert views
        last = views[-1]
        assert txn.txn_id in last.active_txns
        engine.commit(txn)

    def test_read_checkpoint_state_joins_header_lsns(self, tmp_server):
        engine = tmp_server.engine
        engine.checkpoint()
        state = read_checkpoint_state(
            engine.checkpoint_lsns(), engine.wal_segments()
        )
        assert "t" in state
        assert state["t"]["header_checkpoint_lsn"] > 0
        assert "dirty_pages_at_last_checkpoint" in state["t"]

    def test_recovery_exposure_summary(self):
        report = {
            "loser_txns": [7],
            "committed_txns": [1, 2],
            "undo_applied": 3,
            "redo_applied": 9,
            "torn_pages": [("t", 4)],
            "tables": ["t"],
            "end_lsn": 1234,
        }
        summary = recovery_exposure(report)
        assert summary["in_flight_txns"] == [7]
        assert summary["operations_undone"] == 3
        assert summary["torn_pages"] == [("t", 4)]
        assert summary["log_span_bytes"] == 1234
