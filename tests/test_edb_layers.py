"""Tests for the encrypted-database layers."""

import pytest

from repro.edb import (
    ArxRangeEdb,
    AtRestEncryptedStore,
    OnionColumn,
    OnionLayer,
    OreRangeEdb,
    SearchableEdb,
    SeabedEdb,
)
from repro.errors import EDBError
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture

KEY = b"edb-test-key-0123456789abcdef!!!"


@pytest.fixture
def server():
    return MySQLServer()


@pytest.fixture
def session(server):
    return server.connect("edb-client")


class TestAtRest:
    def test_disk_view_hides_contents(self, server, session):
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'topsecret')")
        server.engine.checkpoint()  # write the row's page back to the file
        store = AtRestEncryptedStore(server, KEY)
        view = store.disk_view()
        assert b"topsecret" not in view.encrypted_tablespaces["t"]

    def test_sizes_leak(self, server, session):
        server.execute(session, "CREATE TABLE small (id INT PRIMARY KEY)")
        server.execute(session, "CREATE TABLE big (id INT PRIMARY KEY, v TEXT)")
        server.execute(session, "INSERT INTO small (id) VALUES (1)")
        # Files grow in 4 KB pages: three 2,000-byte rows need two leaves.
        for i in range(3):
            server.execute(
                session, f"INSERT INTO big (id, v) VALUES ({i}, '{'x' * 2000}')"
            )
        store = AtRestEncryptedStore(server, KEY)
        sizes = store.disk_view().object_sizes
        assert sizes["big"] > sizes["small"]

    def test_memory_access_recovers_key_and_data(self, server, session):
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'topsecret')")
        server.engine.checkpoint()  # write the row's page back to the file
        store = AtRestEncryptedStore(server, KEY)
        view = store.disk_view()
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        key = store.key_from_memory(snap.require_memory_dump().data)
        assert key == KEY
        plain = store.decrypt_tablespace(key, view.encrypted_tablespaces["t"])
        assert b"topsecret" in plain

    def test_short_key_rejected(self, server):
        with pytest.raises(EDBError):
            AtRestEncryptedStore(server, b"short")


class TestOnion:
    def test_rnd_layer_hides_equality(self):
        col = OnionColumn(KEY)
        col.insert(b"A")
        col.insert(b"A")
        hist = col.equality_histogram()
        assert all(count == 1 for count in hist.values())

    def test_peel_to_det_reveals_histogram(self):
        col = OnionColumn(KEY)
        for value in (b"A", b"A", b"B"):
            col.insert(value)
        col.peel()
        assert col.layer is OnionLayer.DET
        assert sorted(col.equality_histogram().values()) == [1, 2]

    def test_peel_to_plain(self):
        col = OnionColumn(KEY)
        col.insert(b"A")
        col.peel()
        col.peel()
        assert col.layer is OnionLayer.PLAIN
        assert col.ciphertexts == [b"A"]

    def test_over_peel_rejected(self):
        col = OnionColumn(KEY)
        col.peel()
        col.peel()
        with pytest.raises(EDBError):
            col.peel()

    def test_decrypt_all_at_any_layer(self):
        col = OnionColumn(KEY)
        col.insert(b"x")
        col.insert(b"y")
        assert col.decrypt_all() == [b"x", b"y"]
        col.peel()
        assert col.decrypt_all() == [b"x", b"y"]

    def test_insert_after_peel_stays_at_layer(self):
        col = OnionColumn(KEY)
        col.peel()
        col.insert(b"A")
        col.insert(b"A")
        assert sorted(col.equality_histogram().values()) == [2]


class TestSearchableEdb:
    def test_search_correctness(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        edb.insert_document(1, ["alpha", "beta"], "doc one")
        edb.insert_document(2, ["beta", "gamma"], "doc two")
        edb.insert_document(3, ["delta"], "doc three")
        assert edb.search("beta").doc_ids == [1, 2]
        assert edb.search("delta").doc_ids == [3]
        assert edb.search("missing").doc_ids == []

    def test_body_roundtrip(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        edb.insert_document(1, ["x"], "the secret body")
        assert edb.decrypt_body(1) == "the secret body"

    def test_missing_body_rejected(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        with pytest.raises(EDBError):
            edb.decrypt_body(404)

    def test_tag_replay_equals_search(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        edb.insert_document(1, ["kw"], "body")
        edb.insert_document(2, ["other"], "body2")
        result = edb.search("kw")
        assert edb.replay_tag(result.tag_hex) == result.doc_ids

    def test_tag_lands_in_artifacts(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        edb.insert_document(1, ["kw"], "body")
        result = edb.search("kw")
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        dump = snap.require_memory_dump()
        assert dump.count_locations(result.tag_hex) >= 1
        history_texts = [e.sql_text for e in snap.statements_history]
        assert any(result.tag_hex in t for t in history_texts)

    def test_empty_keyword_rejected(self, server, session):
        edb = SearchableEdb(server, session, KEY)
        with pytest.raises(EDBError):
            edb.token("")


class TestOreEdb:
    def test_range_query_correctness(self, server, session):
        edb = OreRangeEdb(server, session, KEY, bit_length=16)
        values = {1: 100, 2: 5000, 3: 40000, 4: 2}
        for row_id, value in values.items():
            edb.insert(row_id, value)
        record = edb.range_query(50, 10_000)
        assert set(record.matching_ids) == {1, 2}

    def test_empty_range_rejected(self, server, session):
        edb = OreRangeEdb(server, session, KEY, bit_length=16)
        with pytest.raises(EDBError):
            edb.range_query(10, 5)

    def test_tokens_in_statement_history(self, server, session):
        edb = OreRangeEdb(server, session, KEY, bit_length=16)
        edb.insert(1, 123)
        record = edb.range_query(100, 200)
        texts = [
            e.sql_text
            for e in server.perf_schema.events_statements_history(session.session_id)
        ]
        assert any(record.low_token_hex in t for t in texts)

    def test_stored_ciphertexts_parse(self, server, session):
        edb = OreRangeEdb(server, session, KEY, bit_length=16)
        edb.insert(7, 999)
        stored = edb.stored_ciphertexts()
        assert 7 in stored
        assert stored[7].num_blocks == 16


class TestSeabedEdb:
    def test_count_and_sum(self, server, session):
        edb = SeabedEdb(server, session, KEY, category_domain=[1, 2, 3])
        for category, metric in [(1, 10), (1, 20), (2, 5), (3, 1), (1, 4)]:
            edb.insert(join_key=category, metric=metric, category=category)
        assert edb.count_where_category(1) == 3
        assert edb.count_where_category(2) == 1
        assert edb.sum_metric() == 40

    def test_out_of_domain_rejected(self, server, session):
        from repro.errors import CryptoError

        edb = SeabedEdb(server, session, KEY, category_domain=[1])
        with pytest.raises(CryptoError):
            edb.insert(join_key=9, metric=1, category=9)

    def test_join_histogram_leaks_det(self, server, session):
        edb = SeabedEdb(server, session, KEY, category_domain=[1, 2])
        for category in [1, 1, 1, 2]:
            edb.insert(join_key=category, metric=0, category=category)
        hist = edb.join_histogram()
        assert sorted(hist.values()) == [1, 3]

    def test_digest_table_accumulates_per_value_histogram(self, server, session):
        edb = SeabedEdb(server, session, KEY, category_domain=[1, 2, 3])
        for category in [1, 2, 3]:
            edb.insert(join_key=category, metric=0, category=category)
        for _ in range(5):
            edb.count_where_category(1)
        for _ in range(2):
            edb.count_where_category(2)
        hist = server.perf_schema.digest_histogram()
        counts = sorted(
            count for text, count in hist.items() if "ASHE_SUM" in text
        )
        assert counts == [2, 5]

    def test_enhanced_mode_det_column(self, server, session):
        edb = SeabedEdb(
            server,
            session,
            KEY,
            category_domain=[1, 2, 99],
            enhanced=True,
            frequent_values=[1, 2],
        )
        for category in [1, 2, 99, 99]:
            edb.insert(join_key=category, metric=0, category=category)
        assert edb.count_where_category(99) == 2
        assert edb.count_where_category(1) == 1

    def test_enhanced_requires_frequent_values(self, server, session):
        with pytest.raises(EDBError):
            SeabedEdb(server, session, KEY, category_domain=[1], enhanced=True)


class TestArxEdb:
    def test_range_query_correctness(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        for value in [50, 20, 80, 10, 60, 95]:
            edb.insert(value)
        record = edb.range_query(15, 65)
        assert record.matched_values == (20, 50, 60)

    def test_duplicate_value_rejected(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        edb.insert(5)
        with pytest.raises(EDBError):
            edb.insert(5)

    def test_every_query_repairs_visited_nodes(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        for value in [50, 20, 80]:
            edb.insert(value)
        redo_before = server.engine.redo_log.total_appended
        record = edb.range_query(0, 100)
        redo_after = server.engine.redo_log.total_appended
        assert redo_after - redo_before == len(record.visited_node_ids)

    def test_repair_changes_ciphertext(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        edb.insert(42)
        before = server.execute(session, f"SELECT enc_value FROM {edb.table}").rows
        edb.range_query(0, 100)
        after = server.execute(session, f"SELECT enc_value FROM {edb.table}").rows
        assert before != after  # fresh encryption of the same value

    def test_values_sorted(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        for value in [9, 3, 7]:
            edb.insert(value)
        assert edb.values() == [3, 7, 9]

    def test_query_log_ground_truth(self, server, session):
        edb = ArxRangeEdb(server, session, KEY)
        for value in [1, 2, 3]:
            edb.insert(value)
        edb.range_query(1, 2)
        assert len(edb.query_log) == 1
        assert edb.query_log[0].matched_values == (1, 2)
