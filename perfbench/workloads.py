"""The benchmark's three workloads, driven through public APIs only.

``oltp_txn`` and ``point_read_evict`` are closed loops of SQL sessions on
one :class:`~repro.server.frontend.ServerFrontend` (FIFO): each session
sends its next statement only after the previous one returned, and the
sessions take turns one statement at a time. ``leak_pipeline`` runs a
fixed sequence of experiment protocols through their ``run_*`` functions.

Every input comes from the seed; every output is checked. A statement
that errors or returns the wrong rows counts as failed, as does an
experiment whose headline result misses the claim it reproduces.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calibrate import Speedometer
from repro import snapshot
from repro.memory import MemoryDump
from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import SchedulingPolicy, ServerFrontend

TABLE = "bench"
CREATE = f"CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, name TEXT)"

# -- oltp_txn ---------------------------------------------------------------
OLTP_SESSIONS = 16
OLTP_TXNS_PER_SESSION = 156
OLTP_ROWS_PER_TXN = 8

# -- point_read_evict -------------------------------------------------------
READ_SESSIONS = 16
READ_PRELOAD_ROWS = 50_000
READ_PRELOAD_BATCH = 100
READ_POOL_FRAMES = 128
READ_OPS = 15_000
READ_ZIPF_S = 1.0
READ_RANGE_ROWS = 20
READ_MIX = (0.90, 0.05, 0.05)  # point SELECT, range SELECT, INSERT


@dataclass(frozen=True)
class Op:
    """One statement a session sends, with what it must return."""

    kind: str
    sql: str
    #: Expected ``QueryResult.rows`` (None: only "no error" is checked).
    rows: Optional[tuple] = None
    #: Expected row count (range SELECTs).
    count: Optional[int] = None
    #: The statement is its transaction's durability point.
    durable: bool = False


@dataclass
class RepResult:
    """What one repetition measured and checked.

    Intervals are kept as wall-clock ``(start, end)`` pairs until the
    pass is over; ``timings`` converts them to reference time.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per statement, in send order: its kind, whether it was its
    #: transaction's durability point, and when it ran.
    kind: List[str] = field(default_factory=list)
    durable: List[bool] = field(default_factory=list)
    statement_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: Each stage of the pass, in order: each statement's cycle (SQL
    #: workloads) or each experiment.
    segment_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: The pieces of wall time that make up set-up, and the whole pass.
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)
    pass_span: Tuple[float, float] = (0.0, 0.0)
    peak_rss_mb: float = 0.0
    fingerprint: str = ""
    exact: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, start: float, end: float, durable: bool = False) -> None:
        self.kind.append(kind)
        self.durable.append(durable)
        self.statement_spans.append((start, end))
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def timings(self, speed: Speedometer) -> Dict[str, object]:
        """Every interval in reference time, in seconds; the wall times of
        set-up and pass, ticks included, under ``wall_*``."""
        speed.finish()

        def ref(spans):
            return [speed.reference(a, b) for a, b in spans]

        return {
            "setup_s": sum(ref(self.setup_spans)),
            "pass_s": speed.reference(*self.pass_span),
            "latency": ref(self.statement_spans),
            "segments": ref(self.segment_spans),
            "wall_setup_s": sum(b - a for a, b in self.setup_spans),
            "wall_pass_s": self.pass_span[1] - self.pass_span[0],
            "speed_factor": speed.median_factor(),
        }


def paged_config(data_dir: str, **overrides) -> ServerConfig:
    """The SQL workloads' server: paged storage, fsync on every commit.

    ``storage="paged"`` is passed only while ``ServerConfig`` still has
    the field, so removing the memory stack changes no workload.
    """
    kwargs = dict(data_dir=data_dir, wal_sync=True, **overrides)
    if "storage" in {f.name for f in dataclasses.fields(ServerConfig)}:
        kwargs["storage"] = "paged"
    return ServerConfig(**kwargs)


def _name(rng: random.Random) -> str:
    return f"user{rng.randrange(1_000_000):06d}"


def _insert_sql(rows) -> str:
    values = ", ".join(f"({k}, {v}, '{n}')" for k, v, n in rows)
    return f"INSERT INTO {TABLE} (id, v, name) VALUES {values}"


def _point_sql(key: int) -> str:
    return f"SELECT id, v, name FROM {TABLE} WHERE id = {key}"


# -- generators ---------------------------------------------------------------


def oltp_stream(seed: int) -> List[Tuple[int, Op]]:
    """(session index, op) in send order: sessions take turns.

    Each transaction is BEGIN, 8 single-row INSERTs, a PK point SELECT of
    one row it just wrote, and COMMIT. Keys come from a seeded
    permutation, so page splits land all over the tree.
    """
    rng = random.Random(seed)
    txns = OLTP_SESSIONS * OLTP_TXNS_PER_SESSION
    keys = list(range(txns * OLTP_ROWS_PER_TXN))
    rng.shuffle(keys)
    scripts: List[List[Op]] = [[] for _ in range(OLTP_SESSIONS)]
    for txn in range(txns):
        batch = keys[txn * OLTP_ROWS_PER_TXN:(txn + 1) * OLTP_ROWS_PER_TXN]
        rows = [(k, rng.randrange(1_000_000), _name(rng)) for k in batch]
        script = scripts[txn % OLTP_SESSIONS]
        script.append(Op("begin", "BEGIN"))
        script.extend(Op("insert", _insert_sql([row])) for row in rows)
        probe = rng.choice(rows)
        script.append(Op("point_select", _point_sql(probe[0]), rows=(probe,)))
        script.append(Op("commit", "COMMIT", durable=True))
    stream = [
        (s, scripts[s][step])
        for step in range(len(scripts[0]))
        for s in range(OLTP_SESSIONS)
    ]
    stream.append((0, _count_op(len(keys))))
    return stream


def _count_op(rows: int) -> Op:
    return Op("count", f"SELECT COUNT(*) FROM {TABLE}", rows=((rows,),))


def read_preload(seed: int) -> Tuple[List[str], Dict[int, tuple]]:
    """500 multi-row INSERTs of 100 rows over even keys, chunks shuffled."""
    rng = random.Random(seed)
    rows = {}
    for i in range(READ_PRELOAD_ROWS):
        rows[2 * i] = (2 * i, rng.randrange(1_000_000), _name(rng))
    chunks = list(range(READ_PRELOAD_ROWS // READ_PRELOAD_BATCH))
    rng.shuffle(chunks)
    statements = []
    for c in chunks:
        base = c * READ_PRELOAD_BATCH
        statements.append(_insert_sql(
            rows[2 * i] for i in range(base, base + READ_PRELOAD_BATCH)
        ))
    return statements, rows


def read_stream(seed: int, preloaded: Dict[int, tuple]) -> List[Tuple[int, Op]]:
    """90 % Zipf-skewed PK point SELECT, 5 % ~20-row PK range, 5 % INSERT.

    Hot keys are scattered over the key space by a seeded permutation of
    the Zipf ranks. New rows take odd keys in seeded order, so inserts
    split leaves across the whole tree.
    """
    rng = random.Random(seed + 1)
    hot = sorted(preloaded)
    rng.shuffle(hot)
    weights = [1.0 / (rank ** READ_ZIPF_S) for rank in range(1, len(hot) + 1)]
    cum, total = [], 0.0
    for w in weights:
        total += w
        cum.append(total)
    new_keys = [2 * i + 1 for i in range(READ_PRELOAD_ROWS)]
    rng.shuffle(new_keys)
    inserted: List[int] = []  # sorted odd keys written so far
    span = 2 * READ_RANGE_ROWS - 2
    # Exact shares, shuffled: every seed sends the same number of each kind.
    points, ranges = (round(share * READ_OPS) for share in READ_MIX[:2])
    kinds = [0] * points + [1] * ranges + [2] * (READ_OPS - points - ranges)
    rng.shuffle(kinds)
    stream: List[Tuple[int, Op]] = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            key = rng.choices(hot, cum_weights=cum)[0]
            op = Op("point_select", _point_sql(key), rows=(preloaded[key],))
        elif kind == 1:
            low = 2 * rng.randrange(READ_PRELOAD_ROWS - READ_RANGE_ROWS)
            high = low + span
            extra = bisect.bisect_right(inserted, high) - bisect.bisect_left(inserted, low)
            op = Op(
                "range_select",
                f"SELECT id, v FROM {TABLE} WHERE id BETWEEN {low} AND {high}",
                count=READ_RANGE_ROWS + extra,
            )
        else:
            key = new_keys[len(inserted)]
            bisect.insort(inserted, key)
            op = Op("insert", _insert_sql([(key, rng.randrange(1_000_000), _name(rng))]),
                    durable=True)
        stream.append((i % READ_SESSIONS, op))
    stream.append((0, _count_op(READ_PRELOAD_ROWS + len(inserted))))
    return stream


# -- the closed loop ----------------------------------------------------------


def drive(frontend: ServerFrontend, sessions, stream, rep: RepResult,
          speed: Speedometer) -> None:
    """Send each op after the previous one returned; time ``dispatch_one``.

    Each statement's cycle, from its submission to the next one's, is one
    segment of the pass. The speedometer ticks between two statements.
    """
    clock = time.perf_counter
    start = cycle = clock()
    for session_index, op in stream:
        speed.maybe_tick()
        frontend.submit(sessions[session_index], op.sql)
        t0 = clock()
        done = frontend.dispatch_one()
        rep.record(op.kind, t0, clock(), op.durable)
        if done.error is not None:
            rep.fail(f"{op.kind}: {done.error}")
        elif op.rows is not None and done.result.rows != op.rows:
            rep.fail(f"{op.kind}: {op.sql[:60]} returned {done.result.rows[:2]!r}")
        elif op.count is not None and len(done.result.rows) != op.count:
            rep.fail(f"{op.kind}: {op.sql[:60]} returned {len(done.result.rows)} "
                     f"rows, expected {op.count}")
        now = clock()
        rep.segment_spans.append((cycle, now))
        cycle = now
    rep.pass_span = (start, clock())


class SqlWorkload:
    """Server, front end and sessions for one SQL repetition."""

    def __init__(self, data_dir: str, sessions: int, **config) -> None:
        self.data_dir = data_dir
        self.server = MySQLServer(paged_config(data_dir, **config))
        self.frontend = ServerFrontend(
            self.server,
            policy=SchedulingPolicy.FIFO,
            queue_capacity=1 << 20,
            max_sessions=sessions + 1,
        )
        admin = self.frontend.open_session("bench-admin")
        self.frontend.submit(admin, CREATE)
        done = self.frontend.dispatch_one()
        if done.error is not None:
            raise RuntimeError(f"CREATE TABLE failed: {done.error}")
        self.frontend.close_session(admin)
        self.sessions = [
            self.frontend.open_session(f"bench-{i}") for i in range(sessions)
        ]

    def stats(self) -> Dict[str, object]:
        engine = self.server.engine
        return {
            "pool": dict(engine.buffer_pool.stats),
            "wal": dict(engine.wal.stats),
            "heap": self.server.heap.stats,
        }

    def finish(self, rep: RepResult, before: Dict[str, object]) -> None:
        """Exact-repeat counts, then the artifact fingerprint."""
        after = self.stats()
        pool_b, pool_a = before["pool"], after["pool"]
        wal_b, wal_a = before["wal"], after["wal"]
        ops = max(rep.attempted, 1)
        commits = max(sum(rep.durable), 1)
        hits = pool_a["hits"] - pool_b["hits"]
        misses = pool_a["misses"] - pool_b["misses"]
        flushes = wal_a["flushes"] - wal_b["flushes"]
        rep.exact = {
            "wal.bytes_per_txn": (wal_a["bytes_written"] - wal_b["bytes_written"]) / commits,
            "wal.flushes_per_commit": flushes / commits,
            "wal.frames_per_flush":
                (wal_a["flushed_frames"] - wal_b["flushed_frames"]) / max(flushes, 1),
            "storage.pool_hit_rate": hits / max(hits + misses, 1),
            "storage.evictions_per_op": (pool_a["evictions"] - pool_b["evictions"]) / ops,
            "storage.writebacks_per_op": (pool_a["writebacks"] - pool_b["writebacks"]) / ops,
            "memory.allocs_per_stmt":
                (after["heap"].total_allocs - before["heap"].total_allocs) / ops,
            "memory.arena_bytes_per_stmt":
                (after["heap"].arena_size - before["heap"].arena_size) / ops,
            "evictions": pool_a["evictions"] - pool_b["evictions"],
            "wal_bytes": wal_a["bytes_written"] - wal_b["bytes_written"],
        }
        snap = snapshot.capture(
            self.server, snapshot.AttackScenario.FULL_COMPROMISE, escalated=True
        )
        rep.fingerprint = artifact_fingerprint(snap.artifacts, self.data_dir)

    def close(self) -> None:
        self.server.close()


def artifact_fingerprint(artifacts, data_dir: str) -> str:
    """SHA-256 over every captured artifact, with the data directory's path
    left out. Artifact reprs are deterministic functions of their contents
    (string hashing is fixed per run); a memory dump is hashed by its bytes.
    """
    digest = hashlib.sha256()
    path = data_dir.encode()
    for name in sorted(artifacts):
        value = artifacts[name]
        data = value.data if isinstance(value, MemoryDump) else repr(value).encode()
        digest.update(name.encode() + b"=" + data.replace(path, b"<data_dir>") + b";")
    return digest.hexdigest()


def run_oltp(seed: int, data_dir: str, rep: RepResult, speed: Speedometer,
             setup_started: float, before_loop: Callable[[], None]) -> None:
    generating = time.perf_counter()
    stream = oltp_stream(seed)
    generated = time.perf_counter()  # input generation is not set-up
    workload = SqlWorkload(data_dir, OLTP_SESSIONS)
    rep.setup_spans = [(setup_started, generating), (generated, time.perf_counter())]
    _measure(workload, stream, rep, speed, before_loop)


def run_point_read(seed: int, data_dir: str, rep: RepResult, speed: Speedometer,
                   setup_started: float, before_loop: Callable[[], None]) -> None:
    generating = time.perf_counter()
    preload, rows = read_preload(seed)
    stream = read_stream(seed, rows)
    generated = time.perf_counter()
    workload = SqlWorkload(data_dir, READ_SESSIONS,
                           buffer_pool_capacity=READ_POOL_FRAMES)
    loader = workload.server.connect("bench-loader")
    for statement in preload:
        speed.maybe_tick()
        workload.server.execute(loader, statement)
    workload.server.disconnect(loader)
    rep.setup_spans = [(setup_started, generating), (generated, time.perf_counter())]
    rep.extra["table_pages"] = workload.server.engine.tablespace(TABLE).num_pages
    rep.extra["pool_frames"] = READ_POOL_FRAMES
    _measure(workload, stream, rep, speed, before_loop)


def _measure(workload: SqlWorkload, stream, rep: RepResult, speed: Speedometer,
             before_loop: Callable[[], None]) -> None:
    try:
        before = workload.stats()
        before_loop()
        drive(workload.frontend, workload.sessions, stream, rep, speed)
        rep.peak_rss_mb = peak_rss_mb()
        workload.finish(rep, before)
    finally:
        workload.close()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- leak_pipeline ------------------------------------------------------------

#: E7's corpus seed. 2,000 documents over a 120-word vocabulary run today
#: with this seed; other corpus seeds can overflow a memory-mode page,
#: which the server reports as a false DuplicateKeyError (see README).
E7_CORPUS_SEED = 0
E7_DOCUMENTS = 2_000
E8_TRIALS = 40
#: E4's point SELECTs are the pipeline's only ones: 300 rather than 30,
#: so ``point_select_p50_us`` rests on enough samples.
E4_SELECTS = 1000


def pipeline_steps(seed: int):
    """(name, call, check) for each experiment, at its default config with
    only size arguments changed; ``check`` returns a failure message or
    ``None`` when the headline result holds."""
    from repro import experiments as ex
    from repro.experiments.e13_ope import run_ope_sorting

    def e02(r):
        if not (r.prediction_error < 0.05 and r.projected_days_at_paper_capacity > 1.0):
            return f"E2 retention model off by {r.prediction_error:.3f}"

    def e04(r):
        if not (r.last_select_recovered and r.recent_recovered >= 1):
            return "E4 did not recover the last SELECT's access path"

    def e07(r):
        if r.unique_count_recovery_rate != 1.0:
            return f"E7 recovered {r.unique_count_recovery_rate:.2f} of unique-count keywords"
        if r.tokens_carved_from_memory < 0.8 * r.tokens_observed:
            return "E7 carved too few search tokens from memory"

    def e08(r):
        if not r.monotone:
            return "E8 leakage is not monotone in the query count"
        fifty = dict((q, f) for q, f, _, _ in r.rows()).get(50)
        if fifty is not None and not 0.23 <= fifty <= 0.27:
            return f"E8 leaks {fifty:.3f} of bits at 50 queries (paper: 0.25)"

    def e09(r):
        if not r.histogram_exact:
            return "E9 digest histogram does not match the query histogram"

    def e10(r):
        if r.transcript_set_accuracy != 1.0:
            return f"E10 recovered {r.transcript_set_accuracy:.2f} of the transcript"

    def e13(r):
        # Dense columns (every domain value present) sort back exactly;
        # sparse ones, which some seeds draw, still give partial recovery.
        if r.dense_case and r.row_recovery_rate != 1.0:
            return f"E13 dense sorting attack recovered {r.row_recovery_rate:.2f}"
        if r.row_recovery_rate <= 0.0:
            return "E13 sorting attack recovered nothing"

    return [
        ("e02", lambda: ex.run_log_retention(), e02),
        ("e04", lambda: ex.run_buffer_pool_paths(num_selects=E4_SELECTS, seed=seed), e04),
        ("e07", lambda: ex.run_sse_count_attack(
            num_documents=E7_DOCUMENTS, seed=E7_CORPUS_SEED), e07),
        ("e08", lambda: ex.run_lewi_wu_sweep(trials=E8_TRIALS, seed=seed), e08),
        ("e09", lambda: ex.run_seabed_splashe(seed=seed), e09),
        ("e10", lambda: ex.run_arx_transcript(seed=seed), e10),
        ("e13", lambda: run_ope_sorting(seed=seed), e13),
    ]
