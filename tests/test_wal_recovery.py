"""ARIES restart recovery: kill-at-random-point, torn pages, shards.

The central invariant (acceptance criterion of the WAL refactor): after a
crash at *any* point in a workload, recovery rebuilds exactly the committed
prefix — every transaction whose COMMIT reached the durable log is fully
present, every other transaction is fully absent. The kill-at-random-point
test checks this for hundreds of seeded (workload, crash-point) pairs
against a shadow dict maintained alongside the generated workload.
"""

import builtins
import collections
import gc
import os
import random
import shutil
import warnings

import pytest

from repro.engine import StorageEngine
from repro.errors import EngineError, RecoveryError, WalError
from repro.server import MySQLServer, ServerConfig
from repro.server.sharding import ShardedEngine, qualify_dirty_pages
from repro.storage import decode_row
from repro.wal.log_manager import scan_segments
from repro.wal.records import FRAME_HEADER, WalRecordType, parse_frames
from repro.wal.recovery import recover_engine, recover_sharded_engine

TABLES = ("a", "b")
KEYS = 16

# Small frames force evictions (and thus the WAL rule) even in short
# workloads; sync off for speed — the flush boundary semantics are
# identical.
ENGINE_KWARGS = dict(
    buffer_pool_capacity=8,
    wal_segment_bytes=512,
    wal_sync=False,
)


def build_workload(seed):
    """Deterministic (steps, snapshots): snapshots[i] is the committed
    state {table: {key: value}} after executing steps[0..i]."""
    rng = random.Random(seed)
    steps, snapshots = [], []
    committed = {t: {} for t in TABLES}
    value_counter = [0]

    def emit(step):
        steps.append(step)
        snapshots.append({t: dict(committed[t]) for t in TABLES})

    def fresh_value(table, key):
        value_counter[0] += 1
        return f"{table}:{key}:{value_counter[0]}".encode()

    for _ in range(rng.randint(4, 8)):  # transactions
        if rng.random() < 0.2:
            emit(("checkpoint",))
        working = {t: dict(committed[t]) for t in TABLES}
        txn_steps = []
        emit(("begin",))
        for _ in range(rng.randint(1, 5)):  # ops per transaction
            table = rng.choice(TABLES)
            present = sorted(working[table])
            absent = sorted(set(range(KEYS)) - set(present))
            choices = []
            if absent:
                choices.append("insert")
            if present:
                choices.extend(["update", "delete"])
            op = rng.choice(choices)
            if op == "insert":
                key = rng.choice(absent)
                value = fresh_value(table, key)
                working[table][key] = value
                txn_steps.append(("insert", table, key, value))
            elif op == "update":
                key = rng.choice(present)
                value = fresh_value(table, key)
                working[table][key] = value
                txn_steps.append(("update", table, key, value))
            else:
                key = rng.choice(present)
                del working[table][key]
                txn_steps.append(("delete", table, key))
            emit(txn_steps[-1])
        if rng.random() < 0.75:
            committed = working
            emit(("commit",))
        else:
            emit(("rollback",))
    return steps, snapshots


def run_steps(engine, steps):
    """Execute workload steps against a live engine; returns the open txn
    (if the run stops mid-transaction)."""
    txn = None
    for step in steps:
        kind = step[0]
        if kind == "begin":
            txn = engine.begin()
        elif kind == "commit":
            engine.commit(txn)
            txn = None
        elif kind == "rollback":
            engine.rollback(txn)
            txn = None
        elif kind == "checkpoint":
            engine.checkpoint()
        elif kind == "insert":
            engine.insert(txn, step[1], step[2], step[3])
        elif kind == "update":
            engine.update(txn, step[1], step[2], step[3])
        elif kind == "delete":
            engine.delete(txn, step[1], step[2])
    return txn


def engine_state(engine):
    """Committed state per table; a table whose registration never became
    durable (crash before the first flush) reads as empty."""
    out = {}
    for t in TABLES:
        try:
            out[t] = dict(engine.scan(t))
        except EngineError:
            out[t] = {}
    return out


#: The engine shapes the kill sweep crashes: how to open one on a data
#: directory and how to recover it from there.
SHAPES = {
    "single": (
        lambda data_dir: StorageEngine(data_dir=data_dir, **ENGINE_KWARGS),
        lambda data_dir: recover_engine(data_dir, **ENGINE_KWARGS),
    ),
    "sharded": (
        lambda data_dir: ShardedEngine(3, data_dir=data_dir, **ENGINE_KWARGS),
        lambda data_dir: recover_sharded_engine(data_dir, 3, **ENGINE_KWARGS),
    ),
}


def commit_one_then_crash(engine):
    """Commit ``a[KEYS] = b"post"`` on a recovered engine, leave a flushed
    loser behind it, and crash."""
    txn = engine.begin()
    engine.insert(txn, "a", KEYS, b"post")
    engine.commit(txn)
    loser = engine.begin()
    for key in range(KEYS, KEYS + 6):
        engine.insert(loser, "b", key, b"ghost")
    for shard in engine.shards:
        shard.wal.flush()
    engine.simulate_crash()


class TestKillAtRandomPoint:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_recovery_restores_committed_prefix(self, tmp_path, shape):
        """>= 200 seeded (workload, crash-point) pairs per engine shape;
        each recovered state must equal the committed-prefix shadow
        exactly. Every fourth seed then commits one more transaction,
        leaves a loser and crashes again: the second recovery must keep
        the one and drop the other, which it cannot if the first recovery
        let a transaction reuse an id the crashed run's log holds."""
        open_engine, recover = SHAPES[shape]
        failures = []
        for seed in range(200):
            steps, snapshots = build_workload(seed)
            crash_step = random.Random(seed ^ 0xC0FFEE).randrange(len(steps))
            data_dir = str(tmp_path / f"case{seed}")
            engine = open_engine(data_dir)
            for t in TABLES:
                engine.register_table(t)
            run_steps(engine, steps[: crash_step + 1])
            engine.simulate_crash()

            recovered = recover(data_dir)
            expected = snapshots[crash_step]
            actual = engine_state(recovered)
            crashes = 1
            if actual == expected and seed % 4 == 0:
                commit_one_then_crash(recovered)
                expected = {**expected, "a": {**expected["a"], KEYS: b"post"}}
                recovered = recover(data_dir)
                actual = engine_state(recovered)
                crashes = 2
            if actual != expected:
                failures.append(
                    f"seed={seed} crash_step={crash_step}/{len(steps)} "
                    f"crashes={crashes}: expected {expected}, got {actual}"
                )
            recovered.close()
        assert not failures, "\n".join(failures[:10])

    def test_recovered_engine_is_fully_usable(self, tmp_path):
        data_dir = str(tmp_path / "usable")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        txn = engine.begin()
        engine.insert(txn, "a", 1, b"one")
        engine.commit(txn)
        loser = engine.begin()
        engine.insert(loser, "a", 2, b"ghost")
        engine.wal.flush()
        engine.simulate_crash()

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.scan("a") == [(1, b"one")]
        # The LSN continues past the crashed run: no LSN is ever reused.
        assert recovered.lsn.current >= recovered.last_recovery_report.end_lsn
        txn = recovered.begin()
        recovered.insert(txn, "a", 3, b"post")
        recovered.commit(txn)
        assert recovered.scan("a") == [(1, b"one"), (3, b"post")]
        recovered.close()

    def test_double_crash_recovery_idempotent(self, tmp_path):
        data_dir = str(tmp_path / "twice")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(6):
            txn = engine.begin()
            engine.insert(txn, "a", key, f"v{key}".encode())
            engine.commit(txn)
        loser = engine.begin()
        engine.update(loser, "a", 0, b"dirty")
        engine.wal.flush()
        engine.simulate_crash()

        first = recover_engine(data_dir, **ENGINE_KWARGS)
        state_after_first = engine_state(first)
        first.simulate_crash()  # crash again with no new work
        second = recover_engine(data_dir, **ENGINE_KWARGS)
        assert engine_state(second) == state_after_first
        assert second.scan("a") == [
            (k, f"v{k}".encode()) for k in range(6)
        ]
        second.close()

    def test_report_classifies_transactions(self, tmp_path):
        data_dir = str(tmp_path / "classify")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        committed = engine.begin()
        engine.insert(committed, "a", 1, b"c")
        engine.commit(committed)
        rolled = engine.begin()
        engine.insert(rolled, "a", 2, b"r")
        engine.rollback(rolled)
        loser = engine.begin()
        engine.insert(loser, "a", 3, b"l")
        engine.wal.flush()
        engine.simulate_crash()

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        report = recovered.last_recovery_report
        assert report.committed_txns == (committed.txn_id,)
        assert report.aborted_txns == (rolled.txn_id,)
        assert report.loser_txns == (loser.txn_id,)
        assert report.clr_records >= 1  # live rollback wrote CLRs
        assert report.undo_applied >= 1  # the loser insert was reverted
        assert report.tables == ("a",)
        assert recovered.scan("a") == [(1, b"c")]
        recovered.close()

    def test_txn_ids_not_reused_after_recovery(self, tmp_path):
        # Regression: the recovered engine must continue the txn-id
        # sequence past every id in the resumed WAL. A reused id would be
        # classified by the *old* run's COMMIT record on the next crash,
        # letting the new incarnation's uncommitted changes survive.
        data_dir = str(tmp_path / "txnids")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        txn = engine.begin()
        engine.insert(txn, "a", 1, b"one")
        engine.commit(txn)
        committed_id = txn.txn_id
        engine.simulate_crash()

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        loser = recovered.begin()
        assert loser.txn_id > committed_id
        recovered.insert(loser, "a", 2, b"ghost")
        recovered.wal.flush()
        recovered.simulate_crash()

        second = recover_engine(data_dir, **ENGINE_KWARGS)
        assert second.scan("a") == [(1, b"one")]
        assert loser.txn_id in second.last_recovery_report.loser_txns
        second.close()

    def test_table_registration_durable_without_explicit_flush(self, tmp_path):
        # register_table creates the .ibd immediately; the TABLE_REGISTER
        # frame must be durable with it, or recovery neither damage-scans
        # nor moves the tablespace aside.
        data_dir = str(tmp_path / "ddl")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        engine.simulate_crash()

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.last_recovery_report.tables == ("a",)
        assert os.path.exists(os.path.join(data_dir, "a.ibd.crashed"))
        assert recovered.scan("a") == []
        recovered.close()

    def test_rejects_fixed_kwargs(self, tmp_path):
        with pytest.raises(TypeError, match="data_dir"):
            recover_engine(str(tmp_path), data_dir=str(tmp_path))

    def test_empty_data_dir_recovers_to_empty_engine(self, tmp_path):
        recovered = recover_engine(str(tmp_path / "nothing"))
        assert recovered.last_recovery_report.records_scanned == 0
        assert recovered.last_recovery_report.tables == ()
        recovered.close()


class TestTornPages:
    def _crashed_engine(self, tmp_path, name):
        data_dir = str(tmp_path / name)
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(12):
            txn = engine.begin()
            engine.insert(txn, "a", key, f"v{key}".encode())
            engine.commit(txn)
        engine.checkpoint()
        engine.simulate_crash()
        return data_dir

    def test_torn_page_fuzz_state_rebuilt_from_log(self, tmp_path):
        """Corrupt random bytes in the tablespace after the crash: the
        damage is detected, filed in the report, and the recovered state
        still comes entirely from the log."""
        expected = {"a": {k: f"v{k}".encode() for k in range(12)}}
        for seed in range(20):
            data_dir = self._crashed_engine(tmp_path, f"fuzz{seed}")
            path = os.path.join(data_dir, "a.ibd")
            rng = random.Random(seed)
            with open(path, "rb") as fh:
                data = bytearray(fh.read())
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] ^= rng.randint(1, 255)
            with open(path, "wb") as fh:
                fh.write(data)

            recovered = recover_engine(data_dir, **ENGINE_KWARGS)
            report = recovered.last_recovery_report
            assert engine_state(recovered)["a"] == expected["a"], f"seed={seed}"
            # Either the damage hit page bytes (torn/unreadable) or it
            # landed in slack space — but it can never corrupt the result.
            assert isinstance(report.torn_pages, tuple)
            recovered.close()

    def test_torn_page_reported_and_file_moved_aside(self, tmp_path):
        data_dir = self._crashed_engine(tmp_path, "torn")
        path = os.path.join(data_dir, "a.ibd")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        # Garble the head of the *last* page (the header + first records —
        # a torn write that actually hits live bytes, not zero padding).
        from repro.storage.paged import PAGED_PAGE_SIZE

        last_page = (len(data) // PAGED_PAGE_SIZE - 1) * PAGED_PAGE_SIZE
        for i in range(4, 96):
            data[last_page + i] ^= 0xA5
        with open(path, "wb") as fh:
            fh.write(data)

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        report = recovered.last_recovery_report
        assert report.torn_pages  # the damaged page was detected
        assert all(name == "a" for name, _ in report.torn_pages)
        # The crashed file is parked as forensic residue, not deleted.
        assert os.path.exists(path + ".crashed")
        assert recovered.scan("a") == [
            (k, f"v{k}".encode()) for k in range(12)
        ]
        recovered.close()

    def test_wal_torn_tail_tolerated(self, tmp_path):
        data_dir = self._crashed_engine(tmp_path, "tail")
        wal_dir = os.path.join(data_dir, "wal")
        path = os.path.join(wal_dir, sorted(os.listdir(wal_dir))[-1])
        with open(path, "rb") as fh:
            frames, _ = parse_frames(fh.read())
        end = frames[-1].offset + FRAME_HEADER.size + len(frames[-1].body)
        with open(path, "r+b") as fh:  # a partial frame at the log's end
            fh.seek(end)
            fh.write(b"\xfe\xed\xfa\xce")

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.last_recovery_report.truncated_tail is not None
        assert recovered.scan("a") == [
            (k, f"v{k}".encode()) for k in range(12)
        ]
        recovered.close()


class TestShardedRecovery:
    def test_committed_prefix_across_shards(self, tmp_path):
        data_dir = str(tmp_path / "sharded")
        engine = ShardedEngine(num_shards=3, data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        committed = {}
        for key in range(20):
            txn = engine.begin()
            engine.insert(txn, "a", key, f"v{key}".encode())
            engine.commit(txn)
            committed[key] = f"v{key}".encode()
        loser = engine.begin()
        for key in range(20, 26):
            engine.insert(loser, "a", key, b"ghost")
        for shard in engine.shards:
            shard.wal.flush()
        engine.simulate_crash()

        recovered = recover_sharded_engine(data_dir, 3, **ENGINE_KWARGS)
        assert dict(recovered.scan("a")) == committed
        report = recovered.last_recovery_report
        assert len(report.shard_reports) == 3
        assert loser.txn_id in report.loser_txns
        assert report.records_scanned == sum(
            r.records_scanned for r in report.shard_reports
        )
        # Recovered sharded engine keeps working, continuing the txn-id
        # sequence past the crashed run's ids (no reuse across recovery).
        txn = recovered.begin()
        assert txn.txn_id > loser.txn_id
        recovered.insert(txn, "a", 99, b"post")
        recovered.commit(txn)
        assert dict(recovered.scan("a"))[99] == b"post"
        recovered.close()

    def test_combined_report_merges_what_every_shard_saw(self, tmp_path):
        data_dir = str(tmp_path / "merged")
        engine = ShardedEngine(num_shards=3, data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(1, 21):
            txn = engine.begin()
            engine.insert(txn, "a", key, f"v{key}".encode())
            if key % 3 == 0:
                engine.rollback(txn)
            else:
                engine.commit(txn)
            if key == 10:
                engine.checkpoint()
        engine.simulate_crash()
        wal_dir = os.path.join(data_dir, "shard1", "wal")
        last = sorted(os.listdir(wal_dir))[-1]
        with open(os.path.join(wal_dir, last), "rb") as fh:
            frames, _ = parse_frames(fh.read())
        end = frames[-1].offset + FRAME_HEADER.size + len(frames[-1].body)
        with open(os.path.join(wal_dir, last), "r+b") as fh:  # a torn tail
            fh.seek(end)
            fh.write(b"\xfe\xed\xfa\xce")
        with open(os.path.join(data_dir, "shard2", "a.ibd"), "r+b") as fh:
            fh.write(b"\xff" * 64)  # a header that no longer checksums

        recovered = recover_sharded_engine(data_dir, 3, **ENGINE_KWARGS)
        report = recovered.last_recovery_report
        shards = report.shard_reports
        assert all(r.aborted_txns for r in shards)
        assert report.aborted_txns == tuple(
            sorted(txn for r in shards for txn in r.aborted_txns)
        )
        assert all(r.last_checkpoint_lsn > -1 for r in shards)
        assert report.last_checkpoint_lsn == max(
            r.last_checkpoint_lsn for r in shards
        )
        assert report.dirty_pages_at_checkpoint == qualify_dirty_pages(
            [r.dirty_pages_at_checkpoint for r in shards]
        )
        assert report.dirty_pages_at_checkpoint
        assert [r.unreadable_tablespaces for r in shards] == [(), (), ("a",)]
        assert report.unreadable_tablespaces == ("a@shard2",)
        assert [r.truncated_tail is None for r in shards] == [True, False, True]
        assert report.truncated_tail == f"shard1/{shards[1].truncated_tail}"
        assert report.truncated_tail.startswith(f"shard1/{last}: ")
        recovered.close()

    def test_corrupt_shard_log_fails_and_releases_the_other_shards(self, tmp_path):
        data_dir = str(tmp_path / "corrupt")
        engine = ShardedEngine(num_shards=3, data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(20):
            txn = engine.begin()
            engine.insert(txn, "a", key, b"v" * 20)
            engine.commit(txn)
        engine.simulate_crash()
        wal_dir = os.path.join(data_dir, "shard2", "wal")
        first = os.path.join(wal_dir, sorted(os.listdir(wal_dir))[0])
        with open(first, "rb") as fh:
            frames, _ = parse_frames(fh.read())
        with open(first, "r+b") as fh:  # zeros over an interior frame header
            fh.seek(frames[1].offset)
            fh.write(bytes(FRAME_HEADER.size))
        # Collect first: the warning check below must judge only the files
        # this test opens, not those of engines earlier tests dropped unclosed.
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RecoveryError, match="interior"):
                recover_sharded_engine(data_dir, 3, **ENGINE_KWARGS)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_missing_shard_dir_rejected(self, tmp_path):
        data_dir = str(tmp_path / "partial")
        os.makedirs(os.path.join(data_dir, "shard0"))
        with pytest.raises(RecoveryError, match="missing shard directory"):
            recover_sharded_engine(data_dir, 2)


class TestBulkLoadCaveat:
    def test_bulk_load_needs_checkpoint_to_survive(self, tmp_path):
        # bulk_load bypasses the WAL by design: without a checkpoint the
        # rows are not recoverable by replay. With one, they persist in
        # the tablespace... but recovery rebuilds from the log, so the
        # documented contract is: load, checkpoint, and treat the load as
        # outside crash-recovery guarantees.
        data_dir = str(tmp_path / "bulk")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        engine.bulk_load("a", [(k, b"bulk") for k in range(4)])
        txn = engine.begin()
        engine.insert(txn, "a", 10, b"logged")
        engine.commit(txn)
        engine.simulate_crash()

        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.scan("a") == [(10, b"logged")]
        recovered.close()


class TestDefaultServer:
    def test_committed_rows_survive_a_crash(self):
        # The default config: a private tempdir and no fsync. Flushed WAL
        # frames are in the segment files, which is what recovery reads.
        server = MySQLServer(ServerConfig())
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'one'), (2, 'two')")
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, v) VALUES (3, 'three')")
        server.execute(session, "COMMIT")
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, v) VALUES (4, 'in flight')")
        data_dir = server.engine.data_dir
        server.engine.simulate_crash()
        try:
            recovered = recover_engine(data_dir)
            rows = [decode_row(payload)[0] for _, payload in recovered.scan("t")]
            assert rows == [(1, "one"), (2, "two"), (3, "three")]
            recovered.close()
        finally:
            shutil.rmtree(data_dir)


class TestOneReadPerSegment:
    """Recovery analyses the frames its engine's log read when it opened:
    each WAL segment is read once, and the scan is let go afterwards."""

    @staticmethod
    def count_segment_reads(monkeypatch):
        reads = collections.Counter()
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            name = "" if isinstance(file, int) else os.path.basename(os.fspath(file))
            if name.startswith("wal.") and name.endswith(".log") and "+" not in mode:
                if "r" in mode:
                    reads[os.fspath(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        return reads

    @staticmethod
    def write_and_crash(engine):
        engine.register_table("a")
        for key in range(40):
            txn = engine.begin()
            engine.insert(txn, "a", key, b"v" * 30)
            engine.commit(txn)
        loser = engine.begin()
        engine.insert(loser, "a", 99, b"ghost")
        engine.simulate_crash()

    @staticmethod
    def segment_paths(wal_dir):
        return {
            os.path.join(wal_dir, name): 1
            for name in os.listdir(wal_dir)
            if name.startswith("wal.")
        }

    @staticmethod
    def checkpoints(wal_dir):
        return sum(
            frame.rtype is WalRecordType.CHECKPOINT
            for scan in scan_segments(wal_dir)
            for frame in scan.frames
        )

    @staticmethod
    def assert_scans_released(engine):
        for shard in engine.shards:
            with pytest.raises(WalError, match="already taken or flushed"):
                shard.wal.take_resumed_scans()

    def test_recover_engine_reads_each_segment_once(self, tmp_path, monkeypatch):
        data_dir = str(tmp_path / "db")
        self.write_and_crash(StorageEngine(data_dir=data_dir, **ENGINE_KWARGS))
        expected = self.segment_paths(os.path.join(data_dir, "wal"))
        assert len(expected) > 2
        reads = self.count_segment_reads(monkeypatch)
        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert dict(reads) == expected
        self.assert_scans_released(recovered)
        assert len(recovered.scan("a")) == 40
        recovered.close()

    def test_each_shard_recovery_reads_its_segments_once(
        self, tmp_path, monkeypatch
    ):
        """Over the whole sharded recovery: every shard's segments are
        read once, and each shard's log gains one recovery CHECKPOINT."""
        data_dir = str(tmp_path / "sharded")
        self.write_and_crash(
            ShardedEngine(num_shards=3, data_dir=data_dir, **ENGINE_KWARGS)
        )
        wal_dirs = [os.path.join(data_dir, f"shard{i}", "wal") for i in range(3)]
        expected = {}
        for wal_dir in wal_dirs:
            assert len(self.segment_paths(wal_dir)) > 1
            expected.update(self.segment_paths(wal_dir))
        before = [self.checkpoints(wal_dir) for wal_dir in wal_dirs]
        reads = self.count_segment_reads(monkeypatch)
        recovered = recover_sharded_engine(data_dir, 3, **ENGINE_KWARGS)
        assert dict(reads) == expected
        monkeypatch.undo()
        after = [self.checkpoints(wal_dir) for wal_dir in wal_dirs]
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1]
        self.assert_scans_released(recovered)
        assert len(recovered.scan("a")) == 40
        recovered.close()
