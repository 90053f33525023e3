"""Tests for statement-based replication and its attack surface."""

import pytest

from repro.errors import ReproError
from repro.forensics import reconstruct_modifications
from repro.replication import ReplicatedDeployment
from repro.server import ServerConfig
from repro.snapshot import AttackScenario, capture


@pytest.fixture
def deployment():
    dep = ReplicatedDeployment(num_replicas=2)
    session = dep.connect("app")
    dep.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    dep.execute(session, "INSERT INTO t (id, v) VALUES (1, 'alpha'), (2, 'beta')")
    dep.execute(session, "UPDATE t SET v = 'gamma' WHERE id = 1")
    dep.execute(session, "SELECT v FROM t WHERE id = 2")  # reads not shipped
    return dep, session


class TestReplication:
    def test_replicas_hold_full_data(self, deployment):
        dep, _ = deployment
        for replica in dep.replicas:
            session = replica.connect("check")
            result = replica.execute(session, "SELECT id, v FROM t ORDER BY id")
            assert [tuple(r) for r in result.rows] == [(1, "gamma"), (2, "beta")]

    def test_in_sync_status(self, deployment):
        dep, _ = deployment
        status = dep.status()
        assert status.replicas == 2
        assert status.in_sync

    def test_reads_not_replicated(self, deployment):
        dep, _ = deployment
        # 4 statements issued, only 3 are binlogged (writes + DDL).
        assert dep.status().primary_binlog_events == 3

    def test_requires_binlog(self):
        with pytest.raises(ReproError):
            ReplicatedDeployment(config=ServerConfig(binlog_enabled=False))

    def test_requires_an_unsharded_primary(self):
        # Every shard logs every DDL, so replaying the shards' binlogs
        # would create each table once per shard.
        with pytest.raises(ReproError, match="unsharded"):
            ReplicatedDeployment(config=ServerConfig(num_shards=4))

    def test_zero_replicas_fine(self):
        dep = ReplicatedDeployment(num_replicas=0)
        session = dep.connect()
        dep.execute(session, "CREATE TABLE t (id INT PRIMARY KEY)")
        assert dep.status().replicas == 0

    def test_negative_replicas_rejected(self):
        with pytest.raises(ReproError):
            ReplicatedDeployment(num_replicas=-1)

    def test_lazy_shipping(self):
        dep = ReplicatedDeployment(num_replicas=1)
        session = dep.primary.connect("app")  # bypass auto-shipping
        dep.primary.execute(session, "CREATE TABLE t (id INT PRIMARY KEY)")
        dep.primary.execute(session, "INSERT INTO t (id) VALUES (1)")
        assert not dep.status().in_sync
        shipped = dep.ship_binlog()
        assert shipped == 2
        assert dep.status().in_sync


class TestReplicaAttackSurface:
    def test_any_replica_leaks_write_history(self, deployment):
        """Compromising a replica's disk == compromising the primary's."""
        dep, _ = deployment
        for machine in dep.all_machines:
            snap = capture(machine, AttackScenario.DISK_THEFT)
            events = reconstruct_modifications(
                snap.get("redo_log_raw"), snap.get("undo_log_raw")
            )
            table_events = [e for e in events if e.table == "t"]
            assert [e.op for e in table_events] == ["insert", "insert", "update"]
            update = table_events[-1]
            assert update.before == (1, "alpha")
            assert update.after == (1, "gamma")

    def test_replica_binlog_carries_statement_text(self, deployment):
        dep, _ = deployment
        replica = dep.replicas[0]
        texts = [e.statement for e in replica.engine.binlog.events]
        assert any("INSERT INTO t" in t for t in texts)

    def test_replica_heap_holds_replayed_statements(self, deployment):
        dep, _ = deployment
        snap = capture(dep.replicas[1], AttackScenario.VM_SNAPSHOT)
        dump = snap.require("memory_dump")
        assert dump.count_locations("UPDATE t SET v = 'gamma' WHERE id = 1") >= 1

    def test_attack_surface_scales_with_replicas(self):
        dep = ReplicatedDeployment(num_replicas=3)
        session = dep.connect()
        dep.execute(session, "CREATE TABLE t (id INT PRIMARY KEY)")
        dep.execute(session, "INSERT INTO t (id) VALUES (7)")
        leaky_machines = 0
        for machine in dep.all_machines:
            snap = capture(machine, AttackScenario.DISK_THEFT)
            events = reconstruct_modifications(
                snap.get("redo_log_raw"), snap.get("undo_log_raw")
            )
            if any(e.key == 7 for e in events):
                leaky_machines += 1
        assert leaky_machines == 4  # primary + 3 replicas
