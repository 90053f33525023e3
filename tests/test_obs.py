"""Tests for the observability subsystem (repro.obs) and its leakage.

Covers the metrics registry's bucket semantics, span nesting, a server
with observability off, and — the point of the subsystem — that
a snapshot attacker recovers query digests and per-table access counts from
the trace artifact alone, including spans the ring already evicted.
"""

import pytest

from repro.clock import SimClock
from repro.errors import ObsError, SnapshotError
from repro.forensics import (
    carve_spans,
    extract_trace_report,
    parse_trace_store,
    recover_query_digests,
    recover_table_access_counts,
)
from repro.memory import SimulatedHeap
from repro.obs import (
    Histogram,
    Instrumentation,
    MetricsRegistry,
    SpanRecord,
    TraceStore,
    Tracer,
)
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, capture
from repro.sql.digest import digest


def _instr(**kwargs):
    return Instrumentation(clock=SimClock(), **kwargs)


# ---------------------------------------------------------------------------
# Histogram bucket semantics
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_boundary_value_lands_in_its_bucket(self):
        hist = Histogram((100, 250, 500))
        hist.observe(100)  # le=100, Prometheus semantics
        hist.observe(100.1)  # first value above the boundary: next bucket
        assert hist.bucket_count(100) == 1
        assert hist.bucket_count(250) == 2

    def test_overflow_bucket(self):
        hist = Histogram((10,))
        hist.observe(11)
        assert hist.bucket_count(10) == 0
        assert hist.total == 1
        assert hist.counts[-1] == 1

    def test_bucket_counts_are_cumulative(self):
        hist = Histogram((1, 2, 3))
        for value in (0.5, 1.5, 2.5, 2.5):
            hist.observe(value)
        assert hist.bucket_count(1) == 1
        assert hist.bucket_count(2) == 2
        assert hist.bucket_count(3) == 4
        assert hist.sum == pytest.approx(7.0)

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ObsError):
            Histogram((1, 1, 2))
        with pytest.raises(ObsError):
            Histogram((5, 3))
        with pytest.raises(ObsError):
            Histogram(())

    def test_bucket_count_requires_a_boundary(self):
        hist = Histogram((1, 2))
        with pytest.raises(ObsError):
            hist.bucket_count(1.5)


class TestMetricsRegistry:
    def test_counters_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("reads")
        reg.inc("reads", n=2, label="patients")
        reg.inc("reads", label="visits")
        assert reg.counter_value("reads") == 1
        assert reg.counter_value("reads", label="patients") == 2
        assert reg.counter_by_label("reads") == {
            "": 1,
            "patients": 2,
            "visits": 1,
        }

    def test_as_dict_is_flat_and_cumulative(self):
        reg = MetricsRegistry()
        reg.inc("x", label="t")
        reg.set_gauge("g", 2.5)
        reg.histogram("h", bounds=(10, 20))
        reg.observe("h", 10)
        reg.observe("h", 15)
        dump = reg.as_dict()
        assert dump["x{t}"] == 1
        assert dump["g"] == 2.5
        assert dump["h_bucket{le=10}"] == 1
        assert dump["h_bucket{le=20}"] == 2  # cumulative
        assert dump["h_count"] == 2
        assert list(dump) == sorted(dump)

    def test_dump_text_one_line_per_series(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("b", n=3)
        assert reg.dump_text() == "a 1\nb 3\n"


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def _tracer(self, capacity=64):
        clock = SimClock()
        store = TraceStore(SimulatedHeap(), capacity)
        return Tracer(clock, store, MetricsRegistry()), store, clock

    def test_parent_child_nesting(self):
        tracer, store, _ = self._tracer()
        tracer.span("query")
        tracer.span("parse")
        tracer.end()
        tracer.span("execute")
        tracer.span("storage.get", table="t")
        tracer.end()
        tracer.end()
        tracer.end(detail="abc")
        spans = parse_trace_store(store.raw_bytes())
        by_name = {span.name: span for span in spans}
        assert by_name["query"].parent_id == 0
        assert by_name["query"].is_root
        assert by_name["parse"].parent_id == by_name["query"].span_id
        assert by_name["execute"].parent_id == by_name["query"].span_id
        assert by_name["storage.get"].parent_id == by_name["execute"].span_id
        assert len({span.trace_id for span in spans}) == 1
        assert by_name["query"].detail == "abc"

    def test_separate_roots_get_separate_traces(self):
        tracer, store, _ = self._tracer()
        for _ in range(3):
            tracer.span("query")
            tracer.end()
        spans = parse_trace_store(store.raw_bytes())
        assert len({span.trace_id for span in spans}) == 3

    def test_root_duration_covers_clock_advance(self):
        tracer, store, clock = self._tracer()
        tracer.span("query")
        clock.advance(0.25)
        tracer.end()
        (span,) = parse_trace_store(store.raw_bytes())
        assert span.duration == pytest.approx(0.25)

    def test_abandoned_children_are_unwound(self):
        """``unwind`` closes every child at once and keeps the root."""
        tracer, store, clock = self._tracer()
        tracer.span("query")
        tracer.span("execute")
        tracer.span("storage.get", table="t")
        tracer.unwind()
        assert tracer.open_spans == 1
        assert store.num_records == 0  # the trace is still open
        clock.advance(0.5)
        tracer.end(detail="error")
        spans = parse_trace_store(store.raw_bytes())
        assert [span.name for span in spans] == ["storage.get", "execute", "query"]
        assert [span.duration for span in spans] == [0.0, 0.0, 0.5]
        assert spans[-1].detail == "error"

    def test_finishing_a_closed_span_raises(self):
        tracer, _, _ = self._tracer()
        tracer.span("query")
        tracer.end()
        with pytest.raises(ObsError):
            tracer.end()

    def test_trace_matches_span_records_and_counts(self):
        """One pass at root close writes what per-span records would."""
        tracer, store, clock = self._tracer()
        tracer.span("query")
        clock.advance(0.001)
        tracer.span("storage.get", table="t", detail="d")
        clock.advance(0.002)
        tracer.end()
        tracer.end(detail="digest")
        tracer.span("query")
        tracer.end()
        start = SimClock().now
        expected = [
            SpanRecord(1, 2, 1, "storage.get", "t", "d", start + 0.001, 0.002),
            SpanRecord(1, 1, 0, "query", "", "digest", start, 0.003),
            SpanRecord(2, 3, 0, "query", "", "", start + 0.003, 0.0),
        ]
        assert store.raw_records() == [
            expected[0].to_bytes() + expected[1].to_bytes(),
            expected[2].to_bytes(),
        ]
        metrics = tracer.metrics
        assert metrics.counter_by_label("obs.spans") == {
            "storage.get": 1, "query": 2,
        }
        assert metrics.histogram("query.duration_us").total == 2

    def test_span_record_roundtrip(self):
        record = SpanRecord(
            trace_id=7,
            span_id=8,
            parent_id=0,
            name="query",
            table="t",
            detail="deadbeef",
            started_at=1.5,
            duration=0.25,
        )
        parsed, offset = SpanRecord.from_bytes(record.to_bytes())
        assert parsed == record
        assert offset == len(record.to_bytes())


# ---------------------------------------------------------------------------
# Disabled mode: no handle at all (tests/test_obs_off.py: no call either)
# ---------------------------------------------------------------------------


class TestDisabledMode:
    def test_all_surfaces_empty(self):
        """Off, the server holds no handle; a handle starts empty."""
        assert MySQLServer(ServerConfig(obs_enabled=False)).obs is None
        instr = _instr()
        assert set(instr.metrics_dump().values()) == {0}
        assert instr.trace_raw() == b""
        assert instr.trace_spans() == ()

    def test_disabled_server_memory_image_matches_baseline(self):
        """obs_enabled=False must be byte-identical to a default server."""

        def run(config):
            server = MySQLServer(config)
            session = server.connect()
            server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'x')")
            server.execute(session, "SELECT v FROM t WHERE id = 1")
            return server

        baseline = run(None)
        disabled = run(ServerConfig(obs_enabled=False))
        assert disabled.heap.snapshot() == baseline.heap.snapshot()
        assert disabled.heap.stats.total_allocs == baseline.heap.stats.total_allocs


# ---------------------------------------------------------------------------
# The leakage surface: trace store as snapshot artifact
# ---------------------------------------------------------------------------


def _run_workload(config):
    server = MySQLServer(config)
    session = server.connect()
    server.execute(
        session, "CREATE TABLE patients (id INT PRIMARY KEY, diag TEXT)"
    )
    server.execute(session, "CREATE TABLE visits (id INT PRIMARY KEY, day INT)")
    for i in range(6):
        server.execute(
            session,
            f"INSERT INTO patients (id, diag) VALUES ({i}, 'code {i}')",
        )
    for i in range(3):
        server.execute(session, f"INSERT INTO visits (id, day) VALUES ({i}, {i})")
    server.execute(session, "SELECT diag FROM patients WHERE id = 2")
    server.execute(session, "SELECT diag FROM patients WHERE id = 4")
    return server


class TestTraceLeakage:
    def test_digests_and_table_counts_recovered_from_trace_alone(self):
        server = _run_workload(ServerConfig(obs_enabled=True))
        snap = capture(server, AttackScenario.VM_SNAPSHOT)

        report = extract_trace_report(snap.require("obs_trace_raw"))
        # The SELECTs share one digest (same statement shape, different
        # literals); the INSERTs into each table share another.
        select_digest = digest("SELECT diag FROM patients WHERE id = 2")
        assert report.query_digests[select_digest] == 2
        insert_digest = digest("INSERT INTO patients (id, diag) VALUES (0, 'x')")
        assert report.query_digests[insert_digest] == 6
        # Per-table access counts: 6 inserts + 2 point reads vs 3 inserts.
        assert report.table_access_counts["patients"] == 8
        assert report.table_access_counts["visits"] == 3
        # 2 CREATEs + 9 INSERTs + 2 SELECTs, all within the default window.
        assert report.num_traces == 13
        assert len(report.query_durations) == sum(report.query_digests.values())

    def test_metrics_artifact_reports_per_table_totals(self):
        server = _run_workload(ServerConfig(obs_enabled=True))
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        metrics = snap.require("obs_metrics")
        assert metrics["engine.rows_written{patients}"] == 6
        assert metrics["engine.rows_written{visits}"] == 3
        assert metrics["engine.rows_read{patients}"] == 2
        assert metrics["server.statements"] == 13
        assert metrics["query.duration_us_count"] == 13

    def test_sql_injection_gets_metrics_but_not_trace(self):
        """The trace ring is an internal structure: escalation-gated (§5)."""
        server = _run_workload(ServerConfig(obs_enabled=True))
        snap = capture(server, AttackScenario.SQL_INJECTION)
        assert snap.get("obs_metrics") is not None
        assert snap.get("obs_trace_raw") is None
        with pytest.raises(SnapshotError):
            snap.require("obs_trace_raw")
        escalated = capture(server, AttackScenario.SQL_INJECTION, escalated=True)
        assert escalated.get("obs_trace_raw") is not None

    def test_disabled_server_has_no_obs_artifacts(self):
        server = _run_workload(None)
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        assert snap.get("obs_metrics") is None
        assert snap.get("obs_trace_raw") is None
        with pytest.raises(SnapshotError):
            snap.require("obs_metrics")


class TestTraceResidue:
    def test_evicted_spans_carved_from_memory_dump(self):
        """Eviction frees without zeroing: old traces persist as residue."""
        config = ServerConfig(obs_enabled=True, obs_trace_capacity=4)
        server = _run_workload(config)
        store = server.obs.trace_store
        assert store.total_evicted > 0
        assert store.num_records == 4

        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        carved = carve_spans(snap.require("memory_dump"))
        retained = parse_trace_store(snap.require("obs_trace_raw"))
        assert len(carved) > len(retained)

        # Evicted traces still yield digests the bounded view lost.
        carved_digests = recover_query_digests(carved)
        retained_digests = recover_query_digests(retained)
        assert sum(carved_digests.values()) > sum(retained_digests.values())
        create_digest = digest(
            "CREATE TABLE patients (id INT PRIMARY KEY, diag TEXT)"
        )
        assert create_digest not in retained_digests  # evicted long ago
        assert create_digest in carved_digests  # ...but carved back

    def test_secure_delete_zeroes_evicted_spans(self):
        """The paper's missing countermeasure closes the residue channel."""
        config = ServerConfig(
            obs_enabled=True, obs_trace_capacity=4, secure_delete=True
        )
        server = _run_workload(config)
        assert server.obs.trace_store.total_evicted > 0
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        carved = recover_query_digests(carve_spans(snap.require("memory_dump")))
        retained = recover_query_digests(
            parse_trace_store(snap.require("obs_trace_raw"))
        )
        assert sum(carved.values()) == sum(retained.values())

    def test_clear_leaves_residue_unless_secure_delete(self):
        instr = _instr()
        instr.tracer.span("query", detail="abc")
        instr.tracer.end()
        instr.trace_store.clear()
        assert instr.trace_raw() == b""
        carved = carve_spans(instr.trace_store._heap.snapshot())
        assert [span.name for span in carved] == ["query"]

    def test_table_access_counts_from_residue(self):
        """Carving beats the bounded view, though not totally: same-size
        reallocations do overwrite some evicted traces (heap reuse is the
        only "deletion" the allocator performs)."""
        config = ServerConfig(obs_enabled=True, obs_trace_capacity=2)
        server = _run_workload(config)
        snap = capture(server, AttackScenario.VM_SNAPSHOT)
        carved = recover_table_access_counts(
            carve_spans(snap.require("memory_dump"))
        )
        retained = recover_table_access_counts(
            parse_trace_store(snap.require("obs_trace_raw"))
        )
        # The ring retains only the last 2 traces (the SELECTs); residue
        # still names tables from long-evicted INSERT traces.
        assert carved.get("patients", 0) > retained.get("patients", 0)
        assert carved.get("visits", 0) > retained.get("visits", 0)
