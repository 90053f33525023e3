"""Concurrent histories are snapshot-isolated on one engine.

The checker (:mod:`tests.harness.history`) builds Adya's serialization
graph from list-append histories. It is checked first on hand-written
histories, one per anomaly, then run over seeded interleavings: one
engine must show no G0, G1a, G1b, G1c or G-single; a sharded engine
must show DESIGN §9's cross-shard read skew, and only that, as G-single.
``--hypothesis-profile=history-sweep`` runs the one-engine sweep longer.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.errors import WriteConflictError
from repro.server.sharding import ShardedEngine

from tests.harness.history import (
    TABLE,
    Txn,
    check,
    decode,
    encode,
    run_history,
)


def txn(name, *ops, committed=True):
    return Txn(name, list(ops), committed)


def found(history, final):
    return {name: hits for name, hits in check(history, final).items() if hits}


class TestChecker:
    def test_serial_history_is_clean(self):
        history = [
            txn("T0", ("r", 1, ()), ("a", 1, 1), ("r", 1, (1,))),
            txn("T1", ("r", 1, (1,)), ("a", 1, 2), ("a", 2, 3)),
            txn("T2", ("r", 1, (1, 2)), ("r", 2, (3,))),
        ]
        assert found(history, {1: (1, 2), 2: (3,)}) == {}

    def test_g0_write_cycle(self):
        history = [
            txn("T0", ("a", 1, 1), ("a", 2, 4)),
            txn("T1", ("a", 1, 2), ("a", 2, 3)),
        ]
        cycle = [("T0", "T1"), ("T1", "T0")]
        assert found(history, {1: (1, 2), 2: (3, 4)}) == {"G0": cycle, "G1c": cycle}

    def test_g1a_aborted_read(self):
        history = [
            txn("T0", ("a", 1, 1), committed=False),
            txn("T1", ("r", 1, (1,))),
        ]
        assert found(history, {1: ()}) == {"G1a": [("T1", "T0")]}

    def test_g1b_intermediate_read(self):
        history = [
            txn("T0", ("a", 1, 1), ("a", 1, 2)),
            txn("T1", ("r", 1, (1,))),
        ]
        assert found(history, {1: (1, 2)}) == {"G1b": [("T1", "T0", 1)]}

    def test_g1c_read_cycle(self):
        history = [
            txn("T0", ("a", 1, 1), ("r", 2, (2,))),
            txn("T1", ("a", 2, 2), ("r", 1, (1,))),
        ]
        cycle = [("T0", "T1"), ("T1", "T0")]
        assert found(history, {1: (1,), 2: (2,)}) == {"G1c": cycle}

    def test_g_single_read_skew(self):
        # T1 reads x before T0's append and y after it.
        history = [
            txn("T0", ("a", 1, 1), ("a", 2, 2)),
            txn("T1", ("r", 1, ()), ("r", 2, (2,))),
        ]
        assert found(history, {1: (1,), 2: (2,)}) == {"G-single": [("T1", "T0")]}

    def test_write_skew_is_not_g_single(self):
        # Two rw edges: snapshot isolation allows this (G2).
        history = [
            txn("T0", ("r", 1, ()), ("r", 2, ()), ("a", 1, 1)),
            txn("T1", ("r", 1, ()), ("r", 2, ()), ("a", 2, 2)),
        ]
        assert found(history, {1: (1,), 2: (2,)}) == {}

    def test_lost_append_and_incompatible_order(self):
        history = [
            txn("T0", ("r", 1, ()), ("a", 1, 1)),
            txn("T1", ("r", 1, ()), ("a", 1, 2)),
            txn("T2", ("r", 1, (1,))),
        ]
        hits = found(history, {1: (2,)})
        assert hits["lost-append"] == [("T0", 1, 1)]
        assert hits["incompatible-order"] == [("T2", 1, (1,))]

    def test_encoding_round_trips(self):
        for elements in [(), (7,), (1, 22, 333)]:
            assert decode(encode(elements)) == elements
        assert decode(None) == ()


def history_on(engine, seed):
    history, final = run_history(engine, seed)
    engine.close()
    return history, final


class TestOneEngine:
    @given(st.integers(0, 2**32 - 1))
    def test_no_anomaly(self, seed):
        history, final = history_on(StorageEngine(wal_sync=False), seed)
        assert found(history, final) == {}, f"seed={seed}"
        assert sum(t.committed for t in history) > 0

    def test_commit_after_a_begin_at_the_same_lsn_stays_invisible(self):
        # A commit record advances the LSN by zero bytes: T2 commits at
        # the LSN a reader began at, after the reader began. The reader
        # must see neither of T2's rows, nor overwrite one.
        engine = StorageEngine(wal_sync=False)
        engine.register_table(TABLE)
        setup = engine.begin()
        engine.insert(setup, TABLE, 1, encode(()))
        engine.insert(setup, TABLE, 2, encode(()))
        engine.commit(setup)
        writer = engine.begin()
        engine.update(writer, TABLE, 1, encode((1,)))
        engine.update(writer, TABLE, 2, encode((2,)))
        reader = engine.begin()
        assert engine.get(TABLE, 1, txn=reader)[0] == encode(())
        lsn = engine.lsn.current
        engine.commit(writer)
        assert engine.lsn.current == lsn
        assert engine.get(TABLE, 2, txn=reader)[0] == encode(())
        with pytest.raises(WriteConflictError):
            engine.update(reader, TABLE, 2, encode((3,)))
        engine.close()


def sharded():
    return ShardedEngine(num_shards=4, wal_sync=False)


class TestShardedEngine:
    def test_lazy_branch_read_skew_is_g_single(self):
        engine = sharded()
        engine.register_table(TABLE)
        shard_of = engine.router.shard_of
        x = 0
        y = next(k for k in range(1, 50) if shard_of(k) != shard_of(x))
        setup = engine.begin()
        engine.insert(setup, TABLE, x, encode(()))
        engine.insert(setup, TABLE, y, encode(()))
        engine.commit(setup)
        reader = engine.begin()
        r1 = txn("T1", ("r", x, decode(engine.get(TABLE, x, txn=reader)[0])))
        writer = engine.begin()
        engine.update(writer, TABLE, x, encode((1,)))
        engine.update(writer, TABLE, y, encode((2,)))
        engine.commit(writer)
        r1.ops.append(("r", y, decode(engine.get(TABLE, y, txn=reader)[0])))
        engine.commit(reader)
        final = {k: decode(engine.get(TABLE, k)[0]) for k in (x, y)}
        engine.close()
        history = [txn("T0", ("a", x, 1), ("a", y, 2)), r1]
        assert found(history, final) == {"G-single": [("T1", "T0")]}

    def test_sweep_shows_read_skew_and_nothing_else(self):
        kinds = set()
        for seed in range(40):
            history, final = history_on(sharded(), seed)
            kinds |= set(found(history, final))
        assert kinds == {"G-single"}
