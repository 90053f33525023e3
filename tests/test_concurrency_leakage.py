"""Regression: the concurrency subsystem's leakage surfaces stay registered.

Satellite gate for the scheduler-queue / shard-log / MVCC-chain artifacts:
they must appear in the default registry walk, land in the Figure-1 access
matrix, survive the leakage-spec cross-check, and capture (only) under the
conditions their enabled predicates encode.
"""

from pathlib import Path

import pytest

from repro.analysis.registry_gate import registry_spec_problems
from repro.analysis.spec import load_spec
from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import ServerFrontend
from repro.snapshot import AttackScenario, StateQuadrant, capture, default_registry

REPO_ROOT = Path(__file__).resolve().parent.parent
CONCURRENCY_ARTIFACTS = (
    "scheduler_queue",
    "shard_log_sizes",
    "mvcc_version_chains",
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def spec():
    return load_spec(REPO_ROOT / "leakage_spec.json")


class TestRegistryWalk:
    def test_concurrency_artifacts_registered(self, registry):
        for name in CONCURRENCY_ARTIFACTS:
            assert name in registry, name

    def test_scheduler_queue_metadata(self, registry):
        provider = registry.get("scheduler_queue")
        assert provider.backend == "mysql"
        assert provider.quadrant is StateQuadrant.VOLATILE_DB
        assert provider.artifact_class == "data_structures"
        assert provider.requires_escalation
        assert provider.enabled is not None
        assert provider.spec_sinks == ("scheduler_queue",)

    def test_shard_log_sizes_metadata(self, registry):
        provider = registry.get("shard_log_sizes")
        assert provider.quadrant is StateQuadrant.PERSISTENT_DB
        assert provider.artifact_class == "logs"
        assert not provider.requires_escalation
        assert provider.spec_sinks == ("shard_logs",)

    def test_mvcc_version_chains_metadata(self, registry):
        provider = registry.get("mvcc_version_chains")
        assert provider.quadrant is StateQuadrant.VOLATILE_DB
        assert provider.artifact_class == "data_structures"
        assert provider.requires_escalation
        assert provider.spec_sinks == ("mvcc_chains",)


class TestFigureOneMatrix:
    def test_classes_reachable_per_scenario(self, registry):
        matrix = registry.access_matrix()
        # Persistent shard logs are disk-theft surface; volatile scheduler
        # and MVCC structures are not.
        assert matrix[AttackScenario.DISK_THEFT]["logs"]
        assert not matrix[AttackScenario.DISK_THEFT]["data_structures"]
        # Full compromise reaches both.
        assert matrix[AttackScenario.FULL_COMPROMISE]["logs"]
        assert matrix[AttackScenario.FULL_COMPROMISE]["data_structures"]

    def test_unescalated_injection_withholds_volatile_structures(self, registry):
        plan = registry.capture_plan(
            "mysql", AttackScenario.SQL_INJECTION, escalated=False,
            full_state=True,
        )
        names = [name for name, _, _ in plan]
        assert "scheduler_queue" not in names
        assert "mvcc_version_chains" not in names
        escalated = registry.capture_plan(
            "mysql", AttackScenario.SQL_INJECTION, escalated=True,
            full_state=True,
        )
        names = [name for name, _, _ in escalated]
        assert "scheduler_queue" in names
        assert "mvcc_version_chains" in names


class TestLeakageSpecCrossCheck:
    def test_registry_matches_spec(self, registry, spec):
        assert registry_spec_problems(spec, registry) == []

    def test_spec_declares_the_new_sinks(self, spec):
        declared = {sink.sink for sink in spec.sinks}
        assert {"scheduler_queue", "shard_logs", "mvcc_chains"} <= declared

    def test_spec_documents_plaintext_flows_into_new_sinks(self, spec):
        pairs = spec.documented_pairs()
        for sink in ("scheduler_queue", "shard_logs", "mvcc_chains"):
            assert ("plaintext", sink) in pairs, sink
            # The ciphertext families reach the new sinks too — the whole
            # point of §4: "encrypted" does not mean "absent from state".
            assert ("ope_ciphertext", sink) in pairs, sink


class TestCaptureGating:
    def test_plain_server_omits_concurrency_artifacts(self):
        # No front end and one shard: no queue telemetry, no shard sizes.
        # Every engine runs MVCC, so its version chains are always there.
        server = MySQLServer()
        snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
        for name in ("scheduler_queue", "shard_log_sizes"):
            assert name not in snap.artifacts, name
        assert snap.artifacts["mvcc_version_chains"] == ()

    def test_frontend_enables_scheduler_queue(self):
        server = MySQLServer()
        frontend = ServerFrontend(server)
        session = frontend.open_session()
        frontend.submit(session, "CREATE TABLE t (id INT PRIMARY KEY)")
        frontend.drain()
        snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
        telemetry = snap.artifacts["scheduler_queue"]
        assert telemetry["dispatched"] == 1
        assert len(telemetry["arrivals"]) == 1

    def test_sharded_server_enables_shard_log_sizes(self):
        server = MySQLServer(ServerConfig(num_shards=4))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(12):
            server.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, {i})")
        snap = capture(server, AttackScenario.DISK_THEFT)
        stats = snap.artifacts["shard_log_sizes"]
        assert [s.shard for s in stats] == [0, 1, 2, 3]
        assert sum(s.rows for s in stats) == 12
        # Unsharded server: provider disabled, artifact absent.
        plain = MySQLServer()
        snap = capture(plain, AttackScenario.DISK_THEFT)
        assert "shard_log_sizes" not in snap.artifacts

    def test_mvcc_chains_capture_live_contention(self):
        server = MySQLServer()
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10)")
        server.execute(session, "BEGIN")
        server.execute(session, "UPDATE t SET v = 20 WHERE id = 1")
        snap = capture(server, AttackScenario.VM_SNAPSHOT, escalated=True)
        (stat,) = snap.artifacts["mvcc_version_chains"]
        assert (stat.table, stat.key) == ("t", 1)
        assert stat.uncommitted == 1
        server.execute(session, "COMMIT")
        snap = capture(server, AttackScenario.VM_SNAPSHOT, escalated=True)
        assert snap.artifacts["mvcc_version_chains"] == ()
