"""Tests for snapshot scenarios and capture (Figure 1)."""

import itertools

import pytest

from repro.errors import SnapshotError
from repro.server import MySQLServer
from repro.snapshot import (
    AttackScenario,
    StateQuadrant,
    capture,
    default_registry,
    effective_quadrants,
    quadrants_for,
)
from repro.snapshot.scenario import access_matrix, reveals


@pytest.fixture
def loaded_server():
    server = MySQLServer()
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'secret-value')")
    server.execute(session, "SELECT v FROM t WHERE id = 1")
    server.dump_buffer_pool()
    return server


class TestScenarioMatrix:
    def test_disk_theft_persistent_only(self):
        quads = quadrants_for(AttackScenario.DISK_THEFT)
        assert StateQuadrant.PERSISTENT_DB in quads
        assert StateQuadrant.PERSISTENT_OS in quads
        assert StateQuadrant.VOLATILE_DB not in quads

    def test_sql_injection_db_only(self):
        quads = quadrants_for(AttackScenario.SQL_INJECTION)
        assert quads == {
            StateQuadrant.PERSISTENT_DB,
            StateQuadrant.VOLATILE_DB,
        }

    def test_vm_and_full_see_everything(self):
        for scenario in (AttackScenario.VM_SNAPSHOT, AttackScenario.FULL_COMPROMISE):
            assert quadrants_for(scenario) == set(StateQuadrant)

    def test_reveals_helper(self):
        assert reveals(AttackScenario.DISK_THEFT, StateQuadrant.PERSISTENT_DB)
        assert not reveals(AttackScenario.DISK_THEFT, StateQuadrant.VOLATILE_OS)

    def test_effective_quadrants_degrades_storage_only_vm(self):
        quads = effective_quadrants(AttackScenario.VM_SNAPSHOT, full_state=False)
        assert quads == {
            StateQuadrant.PERSISTENT_DB,
            StateQuadrant.PERSISTENT_OS,
        }
        # full_state applies only to VM snapshots.
        assert effective_quadrants(
            AttackScenario.FULL_COMPROMISE, full_state=False
        ) == set(StateQuadrant)

    def test_figure1_artifact_matrix(self):
        matrix = access_matrix()
        # Disk theft: logs only.
        assert matrix[AttackScenario.DISK_THEFT] == {
            "logs": True,
            "diagnostic_tables": False,
            "data_structures": False,
        }
        # SQL injection: diagnostic tables (data structures need escalation).
        assert matrix[AttackScenario.SQL_INJECTION]["diagnostic_tables"]
        assert not matrix[AttackScenario.SQL_INJECTION]["data_structures"]
        # VM snapshot and full compromise: everything.
        for scenario in (AttackScenario.VM_SNAPSHOT, AttackScenario.FULL_COMPROMISE):
            assert all(matrix[scenario].values())

    def test_check_counts_match_paper_table(self):
        # Figure 1 shows 1 / 2 / 3 / 3 checks per row.
        matrix = access_matrix()
        counts = {s: sum(matrix[s].values()) for s in AttackScenario}
        assert counts[AttackScenario.DISK_THEFT] == 1
        assert counts[AttackScenario.SQL_INJECTION] == 2
        assert counts[AttackScenario.VM_SNAPSHOT] == 3
        assert counts[AttackScenario.FULL_COMPROMISE] == 3


class TestCaptureProperty:
    """The registry walk obeys the scenario gating for EVERY provider.

    This replaces hand-enumerated per-scenario assertions: any provider
    added to the registry later is automatically covered.
    """

    @pytest.mark.parametrize(
        "scenario,escalated,full_state",
        list(
            itertools.product(
                list(AttackScenario), (False, True), (True, False)
            )
        ),
        ids=lambda v: str(getattr(v, "value", v)),
    )
    def test_capture_never_exceeds_scenario(
        self, loaded_server, scenario, escalated, full_state
    ):
        registry = default_registry()
        snap = capture(
            loaded_server, scenario, escalated=escalated, full_state=full_state
        )
        # Nothing outside the registry's mysql surface is ever captured.
        mysql_names = set(registry.names(backend="mysql"))
        assert set(snap.artifacts) <= mysql_names

        quadrants = effective_quadrants(scenario, full_state)
        for provider in registry.providers(backend="mysql"):
            name = provider.name
            if provider.quadrant not in quadrants:
                assert name not in snap.artifacts, (
                    f"{name} leaked outside {scenario.value}'s quadrants"
                )
            elif (
                provider.requires_escalation
                and scenario is AttackScenario.SQL_INJECTION
                and not escalated
            ):
                assert name not in snap.artifacts, (
                    f"{name} reached un-escalated SQL injection"
                )
            elif provider.enabled is not None and not provider.enabled(
                loaded_server
            ):
                assert name not in snap.artifacts
            else:
                assert name in snap.artifacts, (
                    f"{name} missing from {scenario.value} "
                    f"(escalated={escalated}, full_state={full_state})"
                )

    def test_capture_only_walks_requested_backend(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.FULL_COMPROMISE)
        assert not any(name.startswith("mongo_") for name in snap.artifacts)
        assert not any(name.startswith("spark_") for name in snap.artifacts)


class TestCaptureBehavior:
    def test_disk_theft_artifacts_have_content(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.DISK_THEFT)
        assert snap.get("redo_log_raw")
        assert snap.get("binlog_events")
        assert snap.get("tablespace_images") and "t" in snap.get("tablespace_images")
        with pytest.raises(SnapshotError):
            snap.require("memory_dump")

    def test_sql_injection_escalated_adds_memory(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.SQL_INJECTION, escalated=True)
        assert snap.get("memory_dump") is not None
        assert snap.get("query_cache_statements") is not None
        # Code execution in the DB process also reads the DB's files: the
        # paper says injection yields "the persistent and volatile DB state".
        assert snap.get("redo_log_raw") is not None

    def test_memory_dump_contains_query_text(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.FULL_COMPROMISE)
        dump = snap.require("memory_dump")
        assert dump.count_locations("SELECT v FROM t WHERE id = 1") >= 1

    def test_snapshot_is_static(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.VM_SNAPSHOT)
        before = snap.require("memory_dump").size
        session = loaded_server.connect("later")
        loaded_server.execute(session, "SELECT * FROM t")
        assert snap.require("memory_dump").size == before

    def test_captured_at_uses_sim_clock(self, loaded_server):
        now = loaded_server.clock.timestamp()
        snap = capture(loaded_server, AttackScenario.DISK_THEFT)
        assert snap.captured_at == now

    def test_generic_accessors(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.DISK_THEFT)
        assert snap.get("redo_log_raw") == snap.require("redo_log_raw")
        assert snap.get("memory_dump") is None
        with pytest.raises(SnapshotError):
            snap.require("memory_dump")

    def test_registry_names_read_as_attributes(self, loaded_server):
        snap = capture(loaded_server, AttackScenario.DISK_THEFT)
        # A registry-known artifact absent from this scenario reads None...
        assert snap.get("digest_summaries") is None
        # ...but a name the registry has never heard of is an error.
        with pytest.raises(AttributeError):
            snap.no_such_artifact
