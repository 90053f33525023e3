"""Tests for the CryptDB-style onion proxy."""

import pytest

from repro.edb.cryptdb import ColumnSpec, CryptDbProxy
from repro.edb.onion import OnionLayer
from repro.errors import EDBError
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture

KEY = b"cryptdb-test-key-0123456789abcd!"


@pytest.fixture
def server():
    return MySQLServer()


@pytest.fixture
def proxy(server):
    session = server.connect("proxy")
    proxy = CryptDbProxy(
        server,
        session,
        KEY,
        table="emp",
        columns=[ColumnSpec("dept", "eq"), ColumnSpec("notes", "search")],
    )
    proxy.insert({"dept": "radiology", "notes": "scan results pending"})
    proxy.insert({"dept": "oncology", "notes": "chemo schedule review"})
    proxy.insert({"dept": "radiology", "notes": "scan archive cleanup"})
    return proxy


class TestConstruction:
    def test_bad_kind_rejected(self):
        with pytest.raises(EDBError):
            ColumnSpec("x", "ope")

    def test_duplicate_columns_rejected(self, server):
        session = server.connect()
        with pytest.raises(EDBError):
            CryptDbProxy(
                server, session, KEY, "t",
                [ColumnSpec("a", "eq"), ColumnSpec("a", "eq")],
            )

    def test_empty_columns_rejected(self, server):
        with pytest.raises(EDBError):
            CryptDbProxy(server, server.connect(), KEY, "t", [])

    def test_short_key_rejected(self, server):
        with pytest.raises(EDBError):
            CryptDbProxy(server, server.connect(), b"x", "t", [ColumnSpec("a", "eq")])


class TestOnionLifecycle:
    def test_starts_at_rnd(self, proxy):
        assert proxy.layer_of("dept") is OnionLayer.RND

    def test_rnd_histogram_is_flat(self, proxy):
        hist = proxy.column_histogram("dept")
        assert all(count == 1 for count in hist.values())

    def test_peel_reveals_histogram(self, proxy):
        proxy.peel("dept")
        assert proxy.layer_of("dept") is OnionLayer.DET
        assert sorted(proxy.column_histogram("dept").values()) == [1, 2]

    def test_double_peel_rejected(self, proxy):
        proxy.peel("dept")
        with pytest.raises(EDBError):
            proxy.peel("dept")

    def test_peel_leaves_update_evidence(self, proxy):
        server = proxy._server
        before = server.engine.redo_log.total_appended
        rewritten = proxy.peel("dept")
        after = server.engine.redo_log.total_appended
        assert rewritten == 3
        assert after - before == 3  # one UPDATE per row in the redo log

    def test_peel_on_search_column_rejected(self, proxy):
        with pytest.raises(EDBError):
            proxy.peel("notes")


class TestQueries:
    def test_select_where_eq_peels_and_matches(self, proxy):
        pks = proxy.select_where_eq("dept", "radiology")
        assert sorted(pks) == [1, 3]
        assert proxy.layer_of("dept") is OnionLayer.DET

    def test_eq_after_peel_no_second_pass(self, proxy):
        proxy.select_where_eq("dept", "radiology")
        redo_before = proxy._server.engine.redo_log.total_appended
        proxy.select_where_eq("dept", "oncology")
        assert proxy._server.engine.redo_log.total_appended == redo_before

    def test_search(self, proxy):
        assert sorted(proxy.search("notes", "scan")) == [1, 3]
        assert proxy.search("notes", "chemo") == [2]
        assert proxy.search("notes", "absent") == []

    def test_search_on_eq_column_rejected(self, proxy):
        with pytest.raises(EDBError):
            proxy.search("dept", "x")

    def test_fetch_decrypted_roundtrip(self, proxy):
        values = proxy.fetch_decrypted("dept", [1, 2, 3])
        assert values == {1: "radiology", 2: "oncology", 3: "radiology"}

    def test_fetch_decrypted_after_peel(self, proxy):
        proxy.peel("dept")
        values = proxy.fetch_decrypted("dept", [2])
        assert values == {2: "oncology"}

    def test_insert_unknown_column_rejected(self, proxy):
        with pytest.raises(EDBError):
            proxy.insert({"salary": 100})


class TestSnapshotLeakage:
    def test_eq_token_lands_in_history(self, proxy):
        proxy.select_where_eq("dept", "radiology")
        snap = capture(proxy._server, AttackScenario.VM_SNAPSHOT)
        texts = [e.sql_text for e in snap.get("statements_history")]
        # The DET ciphertext of 'radiology' is embedded in a WHERE clause.
        det_hex = proxy._det["dept"].encrypt(b"radiology").hex()
        assert any(det_hex in t for t in texts)

    def test_replayed_token_breaks_semantic_security(self, proxy):
        proxy.select_where_eq("dept", "radiology")
        det_hex = proxy._det["dept"].encrypt(b"radiology").hex()
        # The attacker replays the carved ciphertext with no keys at all.
        session = proxy._server.connect("attacker")
        result = proxy._server.execute(
            session,
            f"SELECT pk FROM {proxy.table} WHERE dept_onion = x'{det_hex}'",
        )
        assert sorted(row[0] for row in result.rows) == [1, 3]

    def test_search_tag_lands_in_heap(self, proxy):
        proxy.search("notes", "chemo")
        snap = capture(proxy._server, AttackScenario.VM_SNAPSHOT)
        dump = snap.require("memory_dump")
        tag = proxy._tag("notes", "chemo")
        assert dump.count_locations(tag) >= 1

    def test_peel_burst_visible_in_binlog(self, proxy):
        binlog_before = proxy._server.engine.binlog.num_events
        proxy.peel("dept")
        events = proxy._server.engine.binlog.events[binlog_before:]
        updates = [e for e in events if e.statement.startswith("UPDATE emp")]
        assert len(updates) == 3
