"""MVCC engine semantics: snapshots, conflicts, chains, sharded edges."""

import pytest

from repro.engine import StorageEngine
from repro.errors import EngineError, TransactionError, WriteConflictError
from repro.server.sharding import ShardedEngine


def make_engine(**kwargs):
    engine = StorageEngine(binlog_enabled=True, **kwargs)
    engine.register_table("t")
    return engine


class TestSnapshotReads:
    def test_reader_does_not_see_uncommitted_write(self):
        engine = make_engine()
        writer = engine.begin()
        engine.insert(writer, "t", 1, b"secret")
        value, _ = engine.get("t", 1)  # autocommit read
        assert value is None
        reader = engine.begin()
        value, _ = engine.get("t", 1, txn=reader)
        assert value is None

    def test_read_your_own_writes(self):
        engine = make_engine()
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"mine")
        value, _ = engine.get("t", 1, txn=txn)
        assert value == b"mine"

    def test_repeatable_snapshot_read(self):
        engine = make_engine()
        txn = engine.begin()
        writer = engine.begin()
        engine.insert(writer, "t", 5, b"late")
        engine.commit(writer)
        # Committed after the reader's snapshot: still invisible.
        value, _ = engine.get("t", 5, txn=txn)
        assert value is None
        # A transaction begun after the commit sees it.
        later = engine.begin()
        value, _ = engine.get("t", 5, txn=later)
        assert value == b"late"

    def test_uncommitted_update_rolls_back_to_before_image(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        writer = engine.begin()
        engine.update(writer, "t", 1, b"v2")
        value, _ = engine.get("t", 1)
        assert value == b"v1"
        value, _ = engine.get("t", 1, txn=writer)
        assert value == b"v2"

    def test_concurrently_deleted_row_still_visible_to_old_snapshot(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.insert(setup, "t", 2, b"v2")
        engine.commit(setup)
        reader = engine.begin()
        deleter = engine.begin()
        engine.delete(deleter, "t", 1)
        entries, _ = engine.full_scan("t", txn=reader)
        assert entries == [(1, b"v1"), (2, b"v2")]
        # The deleter itself no longer sees the row.
        entries, _ = engine.full_scan("t", txn=deleter)
        assert entries == [(2, b"v2")]

    def test_range_is_snapshot_filtered(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"a")
        engine.commit(setup)
        reader = engine.begin()
        writer = engine.begin()
        engine.insert(writer, "t", 2, b"b")
        entries, _ = engine.range("t", 1, 10, txn=reader)
        assert entries == [(1, b"a")]

    def test_maintenance_scan_sees_raw_tree(self):
        # scan() is the forensic path: uncommitted writes included.
        engine = make_engine()
        writer = engine.begin()
        engine.insert(writer, "t", 1, b"dirty")
        assert engine.scan("t") == [(1, b"dirty")]

    def test_mvcc_engine_allows_many(self):
        engine = make_engine()
        txns = [engine.begin() for _ in range(10)]
        for txn in txns:
            engine.commit(txn)


class TestFirstWriterWins:
    def test_second_writer_conflicts_on_uncommitted_row(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        first = engine.begin()
        second = engine.begin()
        engine.update(first, "t", 1, b"first")
        with pytest.raises(WriteConflictError):
            engine.update(second, "t", 1, b"second")

    def test_conflict_with_commit_after_snapshot(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        late = engine.begin()
        fast = engine.begin()
        engine.update(fast, "t", 1, b"fast")
        engine.commit(fast)
        with pytest.raises(WriteConflictError):
            engine.update(late, "t", 1, b"late")

    def test_conflict_raises_before_any_mutation(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        first = engine.begin()
        engine.update(first, "t", 1, b"first")
        redo_before = engine.redo_log.num_records
        second = engine.begin()
        with pytest.raises(WriteConflictError):
            engine.update(second, "t", 1, b"second")
        assert engine.redo_log.num_records == redo_before
        assert second.num_changes == 0

    def test_winner_commits_cleanly_after_loser_aborts(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        first = engine.begin()
        second = engine.begin()
        engine.update(first, "t", 1, b"first")
        with pytest.raises(WriteConflictError):
            engine.update(second, "t", 1, b"second")
        engine.rollback(second)
        engine.commit(first)
        value, _ = engine.get("t", 1)
        assert value == b"first"

    def test_non_conflicting_rows_interleave_freely(self):
        engine = make_engine()
        t1 = engine.begin()
        t2 = engine.begin()
        engine.insert(t1, "t", 1, b"one")
        engine.insert(t2, "t", 2, b"two")
        engine.commit(t1)
        engine.commit(t2)
        entries, _ = engine.full_scan("t")
        assert entries == [(1, b"one"), (2, b"two")]


class TestRollback:
    def test_interleaved_rollback_restores_only_own_writes(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v1")
        engine.commit(setup)
        loser = engine.begin()
        engine.update(loser, "t", 1, b"loser")
        bystander = engine.begin()
        engine.insert(bystander, "t", 2, b"bystander")
        engine.rollback(loser)
        engine.commit(bystander)
        entries, _ = engine.full_scan("t")
        assert entries == [(1, b"v1"), (2, b"bystander")]

    def test_rollback_drops_version_chain_entries(self):
        engine = make_engine()
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"x")
        assert engine.mvcc.chain_length("t", 1) == 1
        engine.rollback(txn)
        assert engine.mvcc.chain_length("t", 1) == 0


class TestChainTruncation:
    def test_fully_committed_chains_vanish_without_active_txns(self):
        engine = make_engine()
        for value in (b"a", b"b", b"c"):
            txn = engine.begin()
            if value == b"a":
                engine.insert(txn, "t", 1, value)
            else:
                engine.update(txn, "t", 1, value)
            engine.commit(txn)
        assert engine.mvcc.num_chains == 0
        assert engine.mvcc_chain_stats() == ()

    def test_history_retained_for_oldest_active_snapshot(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"old")
        engine.commit(setup)
        oldie = engine.begin()  # pins the snapshot horizon
        writer = engine.begin()
        engine.update(writer, "t", 1, b"new")
        engine.commit(writer)
        value, _ = engine.get("t", 1, txn=oldie)
        assert value == b"old"
        assert engine.mvcc.chain_length("t", 1) >= 1
        engine.commit(oldie)
        # Horizon released: the committed chain is gone.
        assert engine.mvcc.num_chains == 0

    def test_chain_stats_report_contention(self):
        engine = make_engine()
        setup = engine.begin()
        engine.insert(setup, "t", 1, b"v")
        engine.commit(setup)
        reader = engine.begin()
        writer = engine.begin()
        engine.update(writer, "t", 1, b"w")
        (stat,) = engine.mvcc_chain_stats()
        assert (stat.table, stat.key) == ("t", 1)
        assert stat.uncommitted == 1
        assert stat.length >= 1
        engine.commit(writer)
        engine.commit(reader)


class TestShardedMvccEdges:
    """Satellite: conflicts across shard-boundary keys."""

    def make_sharded(self, num_shards=4):
        engine = ShardedEngine(num_shards=num_shards, binlog_enabled=True)
        engine.register_table("t")
        return engine

    def boundary_keys(self, engine, count=6):
        """Disjoint consecutive-key pairs that land on *different* shards."""
        pairs = []
        key = 0
        while key < 1000 and len(pairs) < count:
            if engine.shard_of(key) != engine.shard_of(key + 1):
                pairs.append((key, key + 1))
                key += 2  # keep pairs disjoint
            else:
                key += 1
        assert len(pairs) == count
        return pairs

    def test_same_key_conflicts_across_global_txns(self):
        engine = self.make_sharded()
        setup = engine.begin()
        engine.insert(setup, "t", 7, b"v")
        engine.commit(setup)
        first = engine.begin()
        second = engine.begin()
        engine.update(first, "t", 7, b"a")
        with pytest.raises(WriteConflictError):
            engine.update(second, "t", 7, b"b")

    def test_adjacent_keys_on_different_shards_do_not_conflict(self):
        engine = self.make_sharded()
        for low, high in self.boundary_keys(engine):
            t1 = engine.begin()
            t2 = engine.begin()
            engine.insert(t1, "t", low, b"low")
            engine.insert(t2, "t", high, b"high")
            engine.commit(t1)
            engine.commit(t2)
        entries, _ = engine.full_scan("t")
        assert len(entries) == 2 * len(self.boundary_keys(engine))

    def test_cross_shard_txn_conflict_aborts_all_branches(self):
        engine = self.make_sharded()
        (low, high) = self.boundary_keys(engine, count=1)[0]
        setup = engine.begin()
        engine.insert(setup, "t", low, b"l")
        engine.insert(setup, "t", high, b"h")
        engine.commit(setup)
        winner = engine.begin()
        engine.update(winner, "t", high, b"winner")
        loser = engine.begin()
        engine.update(loser, "t", low, b"loser-ok")  # different shard: fine
        with pytest.raises(WriteConflictError):
            engine.update(loser, "t", high, b"loser-conflict")
        engine.rollback(loser)  # must undo the shard-low branch too
        engine.commit(winner)
        entries, _ = engine.full_scan("t")
        assert dict(entries) == {low: b"l", high: b"winner"}

    def test_touched_shard_snapshot_is_stable(self):
        engine = self.make_sharded()
        (low, high) = self.boundary_keys(engine, count=1)[0]
        setup = engine.begin()
        engine.insert(setup, "t", low, b"l")
        engine.commit(setup)
        reader = engine.begin()
        # First touch pins this shard's snapshot for the reader.
        value, _ = engine.get("t", low, txn=reader)
        assert value == b"l"
        writer = engine.begin()
        engine.update(writer, "t", low, b"l2")
        engine.commit(writer)
        value, _ = engine.get("t", low, txn=reader)
        assert value == b"l"  # repeatable read on the pinned shard

    def test_untouched_shard_pins_lazily_read_skew(self):
        # Documented cross-shard anomaly: per-shard snapshots are pinned at
        # first touch, so a commit landing on a *not-yet-touched* shard is
        # visible — classic read skew of coordinator-less sharding.
        engine = self.make_sharded()
        (low, high) = self.boundary_keys(engine, count=1)[0]
        setup = engine.begin()
        engine.insert(setup, "t", low, b"l")
        engine.commit(setup)
        reader = engine.begin()
        value, _ = engine.get("t", low, txn=reader)  # pins low's shard only
        assert value == b"l"
        writer = engine.begin()
        engine.insert(writer, "t", high, b"h")
        engine.commit(writer)
        entries, _ = engine.full_scan("t", txn=reader)
        assert entries == [(low, b"l"), (high, b"h")]


class TestTransactionState:
    def test_finished_transaction_rejects_reuse(self):
        engine = make_engine()
        txn = engine.begin()
        engine.commit(txn)
        with pytest.raises(TransactionError):
            engine.commit(txn)
        with pytest.raises(TransactionError):
            txn.record_statement("SELECT 1")

    def test_unknown_table_still_raises(self):
        engine = make_engine()
        txn = engine.begin()
        with pytest.raises(EngineError):
            engine.insert(txn, "nope", 1, b"x")

    def test_txn_ids_unique_and_monotone(self):
        engine = make_engine()
        seen = [engine.begin().txn_id for _ in range(5)]
        assert seen == sorted(seen)
        assert len(set(seen)) == 5
