"""Rollback undoes from the MVCC version chains.

A row change is kept once: its before-image sits on the row's version
chain, and ``StorageEngine.rollback`` pops the transaction's versions off
the chain heads and undoes from them. Rollback used to undo from a second
copy, a per-transaction list of ``(table, op, key, before)`` changes. That
algorithm is kept below as :func:`reference_rollback`: the property test
has its driver record each change itself, runs the same history on two
engines, one rolling back through the engine and one through the
reference, and compares them after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.errors import ReproError, TransactionError
from repro.server.sharding import ShardedEngine
from repro.storage.record import encode_row
from repro.wal.records import RedoRecord, WalRecordType, parse_frames

KINDS = {
    "single": lambda: StorageEngine(wal_sync=False),
    "sharded": lambda: ShardedEngine(num_shards=3, wal_sync=False),
}


def reference_rollback(engine, txn, changes):
    """Undo ``changes`` (the driver's ``(table, op, key, before)`` list for
    this transaction) newest first, each CLR before its tree op; then drop
    the transaction's versions from the chain heads it wrote."""
    for table, op, key, before in reversed(changes):
        tree = engine.btree(table)
        if op == "insert":
            engine.wal.append_clr(RedoRecord(txn.txn_id, table, "delete", key, b""))
            tree.delete(key)
        elif op == "update":
            engine.wal.append_clr(RedoRecord(txn.txn_id, table, "update", key, before))
            tree.update(key, before)
        else:
            engine.wal.append_clr(RedoRecord(txn.txn_id, table, "insert", key, before))
            tree.insert(key, before)
    engine.wal.append_abort(txn.txn_id)
    txn.mark_rolled_back()
    mvcc = engine.mvcc
    del mvcc._active[txn.txn_id]
    for table, key in {(table, key) for table, _, key, _ in changes}:
        chain = mvcc._chains[table]
        head = chain[key]
        while head is not None and head.commit_seq is None and (
            head.txn_id == txn.txn_id
        ):
            head = head.prev
        if head is None:
            del chain[key]
        else:
            chain[key] = head
    if not mvcc._active:
        mvcc._clear_committed()


def reference_rollback_any(engine, txn, changes):
    """:func:`reference_rollback` on a single engine or on each branch of a
    sharded transaction, in shard order."""
    if not isinstance(engine, ShardedEngine):
        reference_rollback(engine, txn, changes)
        return
    for index, branch in sorted(txn.branches.items()):
        mine = [c for c in changes if engine.shard_of(c[2]) == index]
        reference_rollback(engine.shards[index], branch, mine)
    txn.mark_rolled_back()


def clr_frames(shard):
    """The shard's CLR frames as ``(lsn, body)``: flushed, then staged."""
    flushed = [
        frame
        for data in shard.wal.segments().values()
        for frame in parse_frames(data)[0]
    ]
    staged = [parse_frames(raw)[0][0] for raw in shard.wal._pending]
    return [
        [(f.lsn, f.body) for f in frames if f.rtype is WalRecordType.CLR]
        for frames in (flushed, staged)
    ]


def observe(engine):
    return [
        (clr_frames(shard), shard.scan("t"), shard.mvcc_chain_stats())
        for shard in engine.shards
    ]


_STEPS = st.lists(
    st.tuples(
        st.integers(0, 1),  # session
        st.sampled_from(["insert", "update", "delete", "commit", "rollback"]),
        st.integers(0, 5),  # key: few, so keys are written repeatedly
        st.integers(0, 60),  # row width
    ),
    max_size=40,
)


def run_history(kind, steps, rollback):
    """Run ``steps`` on a fresh engine, rolling back with ``rollback(engine,
    txn, changes)``; every transaction still open at the end rolls back.
    Returns what :func:`observe` saw after every step."""
    engine = KINDS[kind]()
    engine.register_table("t")
    txns = [None, None]
    changes = [[], []]
    seen = []

    def finish(session, action):
        if action == "commit":
            engine.commit(txns[session])
        else:
            rollback(engine, txns[session], changes[session])
        txns[session] = None
        changes[session] = []

    for session, action, key, width in steps:
        if action in ("commit", "rollback"):
            if txns[session] is not None:
                finish(session, action)
                seen.append(observe(engine))
            continue
        if txns[session] is None:
            txns[session] = engine.begin()
        txn = txns[session]
        before = dict(engine.scan("t")).get(key, b"")
        try:
            if action == "delete":
                engine.delete(txn, "t", key)
            else:
                getattr(engine, action)(txn, "t", key, encode_row((key, "v" * width)))
        except ReproError as exc:
            seen.append(type(exc).__name__)
        else:
            changes[session].append(("t", action, key, before))
        seen.append(observe(engine))
    for session in (0, 1):
        if txns[session] is not None:
            finish(session, "rollback")
            seen.append(observe(engine))
    engine.close()
    return seen


def engine_rollback(engine, txn, changes):
    engine.rollback(txn)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(deadline=None)
@given(steps=_STEPS)
def test_rollback_matches_the_change_list_reference(kind, steps):
    assert run_history(kind, steps, engine_rollback) == run_history(
        kind, steps, reference_rollback_any
    )


# -- rolling back a finished transaction -----------------------------------------


def state(engine):
    return [
        (
            shard.scan("t"),
            shard.wal.stats["appended_frames"],
            shard.mvcc_chain_stats(),
        )
        for shard in engine.shards
    ]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("ending", ["commit", "rollback"])
def test_rollback_of_a_finished_transaction_changes_nothing(kind, ending):
    engine = KINDS[kind]()
    engine.register_table("t")
    reader = engine.begin()  # keeps the finished transaction's versions
    engine.get("t", 1, txn=reader)
    txn = engine.begin()
    engine.insert(txn, "t", 1, encode_row((1, "a")))
    engine.insert(txn, "t", 2, encode_row((2, "b")))
    getattr(engine, ending)(txn)
    before = state(engine)
    with pytest.raises(TransactionError):
        engine.rollback(txn)
    assert state(engine) == before
    engine.commit(reader)
    engine.close()
