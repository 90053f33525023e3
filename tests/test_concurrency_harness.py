"""Deterministic concurrency harness: replay, fuzzing, byte-equivalence.

The gate for MVCC, the session front end and sharding: every interleaving
replays exactly from its seed, a 500-interleaving fuzzer checks transaction
atomicity and MVCC hygiene under contention (failure messages print the
replay seed), and the 64-session E7/E13 stress test proves the scheduler
front end leaves *byte-identical* forensic artifacts to a serial run.
"""

from repro.server import ServerConfig
from repro.server.frontend import SchedulingPolicy

from tests.harness import (
    InterleavingDriver,
    artifact_fingerprint,
    e7_statements,
    e13_statements,
    round_robin_scripts,
    run_frontend,
    run_serial,
)

SETUP = ["CREATE TABLE t (id INT PRIMARY KEY, v INT)"]


def contended_scripts(num_sessions=4):
    """Each session inserts its own rows, then updates a shared row.

    The shared-row update is the *last* write before COMMIT, so a write
    conflict aborts the whole transaction: either all of a session's rows
    land, or none do.
    """
    scripts = []
    for i in range(num_sessions):
        a, b = 100 + 2 * i, 101 + 2 * i
        scripts.append([
            "BEGIN",
            f"INSERT INTO t (id, v) VALUES ({a}, {i})",
            f"INSERT INTO t (id, v) VALUES ({b}, {i})",
            f"UPDATE t SET v = {i} WHERE id = 0",
            "COMMIT",
        ])
    return scripts


def run_contended(seed):
    driver = InterleavingDriver(
        contended_scripts(),
        setup=SETUP + ["INSERT INTO t (id, v) VALUES (0, -1)"],
        seed=seed,
    )
    return driver.run()


def table_rows(server):
    session = server.connect("check")
    result = server.execute(session, "SELECT id, v FROM t ORDER BY id")
    server.disconnect(session)
    return {row[0]: row[1] for row in result.rows}


class TestDriverDeterminism:
    def test_same_seed_same_run(self):
        first = run_contended(seed=1234)
        second = run_contended(seed=1234)
        assert first.trace == second.trace
        assert first.errors == second.errors
        assert table_rows(first.server) == table_rows(second.server)

    def test_same_seed_same_artifacts(self):
        first = run_contended(seed=99)
        second = run_contended(seed=99)
        assert artifact_fingerprint(first.server) == artifact_fingerprint(
            second.server
        )

    def test_different_seeds_explore_different_interleavings(self):
        traces = {run_contended(seed=s).trace for s in range(8)}
        assert len(traces) > 1

    def test_describe_prints_the_seed(self):
        result = run_contended(seed=42)
        assert "seed=42" in result.describe()


class TestInterleavingFuzzer:
    """Satellite: 500 seeded interleavings, replay seed printed on failure."""

    def test_500_interleavings_preserve_atomicity(self):
        for seed in range(500):
            result = run_contended(seed=seed)
            rows = table_rows(result.server)
            errored = {idx for idx, _, _ in result.errors}
            for i in range(4):
                a, b = 100 + 2 * i, 101 + 2 * i
                if i in errored:
                    # Conflict aborted the txn: no partial rows survive.
                    assert a not in rows and b not in rows, result.describe()
                else:
                    assert rows.get(a) == i and rows.get(b) == i, (
                        result.describe()
                    )
            # The shared row holds a committed session's tag (or the
            # initial value if every contender lost).
            winners = {i for i in range(4) if i not in errored}
            assert rows[0] in winners or (not winners and rows[0] == -1), (
                result.describe()
            )
            # No dangling MVCC state: every txn committed or rolled back.
            assert result.server.engine.mvcc.active_txn_ids == (), (
                result.describe()
            )
            assert result.server.engine.mvcc_chain_stats() == (), (
                result.describe()
            )

    def test_errors_are_only_conflict_shaped(self):
        allowed = ("WriteConflictError", "ServerError")
        for seed in range(0, 500, 7):
            result = run_contended(seed=seed)
            for _, _, error in result.errors:
                assert error.startswith(allowed), result.describe()


class TestSerialEquivalence:
    def disjoint_scripts(self, num_sessions=4):
        """Commuting workload: sessions write disjoint keys in txns."""
        scripts = []
        for i in range(num_sessions):
            base = 10 * i
            scripts.append([
                "BEGIN",
                f"INSERT INTO t (id, v) VALUES ({base}, {i})",
                f"INSERT INTO t (id, v) VALUES ({base + 1}, {i})",
                f"UPDATE t SET v = {100 + i} WHERE id = {base}",
                "COMMIT",
            ])
        return scripts

    def test_any_interleaving_of_commuting_txns_is_serial(self):
        scripts = self.disjoint_scripts()
        serial = run_serial(scripts, setup=SETUP)
        expected = table_rows(serial)
        for seed in range(25):
            result = InterleavingDriver(scripts, setup=SETUP, seed=seed).run()
            assert result.errors == (), result.describe()
            assert table_rows(result.server) == expected, result.describe()


def stress_scripts():
    """The 64-session E7+E13 stress workload."""
    e7_setup, e7 = e7_statements()
    e13_setup, e13 = e13_statements()
    setup = e7_setup + e13_setup
    scripts = [
        a + b
        for a, b in zip(
            round_robin_scripts(e7, 64), round_robin_scripts(e13, 64)
        )
    ]
    return setup, scripts


STRESS_CONFIG = dict(num_shards=8, general_log_enabled=True, obs_enabled=True)


class TestStressByteEquivalence:
    """Tentpole gate: scheduler front end vs serial run, byte-for-byte."""

    def test_64_sessions_8_shards_fifo_equals_serial(self):
        setup, scripts = stress_scripts()
        serial = run_serial(scripts, setup=setup, config=ServerConfig(**STRESS_CONFIG))
        concurrent, frontend, _ = run_frontend(
            scripts,
            setup=setup,
            config=ServerConfig(**STRESS_CONFIG),
            policy=SchedulingPolicy.FIFO,
        )
        telemetry = frontend.queue_telemetry()
        assert telemetry["dispatched"] == sum(len(s) for s in scripts)
        assert telemetry["rejected"] == 0
        want = artifact_fingerprint(serial)
        got = artifact_fingerprint(concurrent)
        assert sorted(want) == sorted(got)
        mismatched = [name for name in want if want[name] != got[name]]
        assert mismatched == []

    def test_stress_run_is_reproducible(self):
        setup, scripts = stress_scripts()
        runs = [
            run_frontend(
                scripts, setup=setup, config=ServerConfig(**STRESS_CONFIG)
            )[0]
            for _ in range(2)
        ]
        assert artifact_fingerprint(runs[0]) == artifact_fingerprint(runs[1])

    def test_workload_statement_streams_are_deterministic(self):
        assert e7_statements() == e7_statements()
        assert e13_statements() == e13_statements()
        # Different seeds change the stream (the knob is real).
        assert e7_statements(seed=1) != e7_statements(seed=2)


class TestSchedulerQueueTelemetryArtifact:
    def test_fifo_dispatch_order_equals_arrival_order(self):
        scripts = [["SELECT id FROM t"] for _ in range(6)]
        _, _, completed = run_frontend(scripts, setup=SETUP)
        assert len(completed) == 6
        assert all(c.error is None for c in completed)
        order = [c.request.session_id for c in completed]
        arrivals = [c.request.seq for c in completed]
        assert arrivals == sorted(arrivals)
        assert order == sorted(order, key=lambda s: order.index(s))

    def test_queue_telemetry_counts(self):
        scripts = [["SELECT id FROM t", "SELECT v FROM t"] for _ in range(3)]
        _, frontend, _ = run_frontend(scripts, setup=SETUP)
        telemetry = frontend.queue_telemetry()
        assert len(telemetry["arrivals"]) == 6
        # Arrival records carry (seq, session_id, arrival_ts).
        seqs = [seq for seq, _, _ in telemetry["arrivals"]]
        assert seqs == sorted(seqs)
        assert telemetry["dispatched"] == 6
        assert len(telemetry["depth_samples"]) >= 6
