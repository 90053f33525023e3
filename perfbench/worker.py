"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload oltp_txn --seed 1 --trace 0 --tmp DIR

``run.py`` starts one of these per repetition, because statements run in
an interpreter that already ran a repetition are slower and its RSS has
grown: repetitions in one process are not independent samples. The last
line of standard output is one JSON object with the repetition's
figures; ``setup_s`` counts from before ``repro`` is imported.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import List  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import Speedometer  # noqa: E402

SPEED = Speedometer()  # ticks from here to the end of the pass

import workloads  # noqa: E402  (imports repro: part of set-up)
from tracer import FRONTEND, STATEMENT_LAYERS, Tracer, percentile  # noqa: E402

SQL_WORKLOADS = {"oltp_txn": workloads.run_oltp, "point_read_evict": workloads.run_point_read}
#: Speedometer ticks before each experiment of the pipeline and after the last.
PIPELINE_TICKS = 4


def layer_figures(tracer: Tracer, rep: workloads.RepResult) -> dict:
    """Per-layer figures of one traced repetition."""
    layers = {layer for layer, _, _ in STATEMENT_LAYERS} | {FRONTEND[0]}
    out = {f"{layer}_us": tracer.per_statement_us(layer) for layer in layers}
    flushes = tracer.samples.get("wal.flush") or [0.0]
    gets = tracer.calls.get("engine.get", 0)
    out.update({
        "wal.flush_us_p50": 1e6 * percentile(flushes, 50),
        "wal.flush_us_p99": 1e6 * percentile(flushes, 99),
        "server.rows_examined_per_row_sent":
            tracer.rows_examined / max(tracer.rows_sent, 1),
        "storage.pages_per_lookup": tracer.lookup_pages / max(gets, 1),
        "snapshot.capture_s": tracer.seconds("snapshot.capture"),
        "forensics.reader_s": tracer.seconds("forensics.reader"),
        "attacks.inference_s": tracer.seconds("attacks.inference"),
        "edb.client_s": tracer.seconds("edb.client"),
        "trace.uncovered_us": tracer.per_statement_us("server.execute"),
        "trace.statements": tracer.statements,
    })
    out.update({k: v for k, v in rep.exact.items() if "." in k})
    return out


def run_sql(args, rep: workloads.RepResult, tracer) -> None:
    data_dir = os.path.join(args.tmp, f"data-{os.getpid()}")

    def before_loop() -> None:
        if tracer is not None:
            tracer.install_all(frontend_root=True)
            tracer.reset()

    SQL_WORKLOADS[args.workload](args.seed, data_dir, rep, SPEED, STARTED, before_loop)


class ServerStats:
    """Sums the public ``stats`` of every server an experiment builds."""

    def __init__(self) -> None:
        from repro.server import MySQLServer

        self.servers = []
        self.totals = dict.fromkeys(
            ("allocs", "arena", "hits", "misses", "evictions", "writebacks",
             "flushes", "frames", "wal_bytes"), 0)
        original = MySQLServer.__init__
        servers = self.servers

        def init(server, *a, **kw):
            original(server, *a, **kw)
            servers.append(server)

        MySQLServer.__init__ = init

    def collect(self) -> None:
        for server in self.servers:
            heap, pool, wal = (server.heap.stats, server.engine.buffer_pool.stats,
                               server.engine.wal.stats)
            t = self.totals
            t["allocs"] += heap.total_allocs
            t["arena"] += heap.arena_size
            t["hits"] += pool["hits"]
            t["misses"] += pool["misses"]
            t["evictions"] += pool["evictions"]
            t["writebacks"] += pool.get("writebacks", 0)
            t["flushes"] += wal["flushes"]
            t["frames"] += wal["flushed_frames"]
            t["wal_bytes"] += wal["bytes_written"]
        self.servers.clear()

    def figures(self, statements: int, commits: int) -> dict:
        t = self.totals
        statements = max(statements, 1)
        commits = max(commits, 1)
        return {
            "memory.allocs_per_stmt": t["allocs"] / statements,
            "memory.arena_bytes_per_stmt": t["arena"] / statements,
            "storage.pool_hit_rate": t["hits"] / max(t["hits"] + t["misses"], 1),
            "storage.evictions_per_op": t["evictions"] / statements,
            "storage.writebacks_per_op": t["writebacks"] / statements,
            "wal.flushes_per_commit": t["flushes"] / commits,
            "wal.frames_per_flush": t["frames"] / max(t["flushes"], 1),
            "wal.bytes_per_txn": t["wal_bytes"] / commits,
        }


def classify(sql: str, result, autocommit: bool):
    """(kind, durable) of one experiment statement, from its text and result."""
    verb = sql.lstrip()[:6].upper()
    if verb == "SELECT":
        return ("point_select" if result.rows_examined <= 1 else "scan_select"), False
    if verb == "INSERT":
        return "insert", autocommit
    if verb in ("UPDATE", "DELETE"):
        return "write", autocommit
    if verb == "COMMIT":
        return "commit", True
    return "other", False


def time_statements(rep: workloads.RepResult) -> None:
    """Time every ``MySQLServer.execute`` the experiments make; the
    speedometer ticks between two of them."""
    from repro.server import MySQLServer

    original = MySQLServer.execute
    clock = time.perf_counter

    def execute(server, session, sql):
        SPEED.maybe_tick()
        autocommit = session.active_txn is None
        start = clock()
        try:
            result = original(server, session, sql)
        except Exception:
            rep.record("error", start, clock())
            rep.fail(f"statement raised: {sql[:60]}")
            raise
        end = clock()
        kind, durable = classify(sql, result, autocommit)
        rep.record(kind, start, end, durable)
        return result

    MySQLServer.execute = execute


def run_pipeline(args, rep: workloads.RepResult, tracer) -> List[str]:
    """Run the experiments once; returns their names, one per segment."""
    from repro import experiments  # noqa: F401  (loaded before any patching)

    steps = workloads.pipeline_steps(args.seed)
    rep.setup_spans = [(STARTED, time.perf_counter())]
    stats = None
    if tracer is not None:
        stats = ServerStats()
        tracer.install_all(frontend_root=False)
    else:
        time_statements(rep)
    clock = time.perf_counter
    start = clock()
    for name, call, check in steps:
        for _ in range(PIPELINE_TICKS):
            SPEED.tick()
        step_start = clock()
        try:
            result = call()
        except Exception as exc:  # an experiment that crashes is a failed check
            message = f"{name} raised {type(exc).__name__}: {exc}"
        else:
            message = check(result)
        rep.segment_spans.append((step_start, clock()))
        rep.attempted += 1
        if message:
            rep.fail(message)
        if stats is not None:
            stats.collect()
    for _ in range(PIPELINE_TICKS):
        SPEED.tick()
    rep.pass_span = (start, clock())
    rep.peak_rss_mb = workloads.peak_rss_mb()
    if stats is not None:
        rep.exact = stats.figures(tracer.statements, tracer.calls.get("engine.commit", 0))
    return [name for name, _, _ in steps]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(SQL_WORKLOADS) + ["leak_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    rep = workloads.RepResult()
    tracer = Tracer() if args.trace else None
    names: List[str] = []
    if args.workload == "leak_pipeline":
        names = run_pipeline(args, rep, tracer)
    else:
        run_sql(args, rep, tracer)
    out = {
        "traced": bool(args.trace),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "failures": rep.failures,
        "peak_rss_mb": rep.peak_rss_mb,
        "kind": rep.kind,
        "durable": rep.durable,
        "fingerprint": rep.fingerprint,
        "exact": rep.exact,
        "extra": rep.extra,
    }
    out.update(rep.timings(SPEED))
    for name, seconds in zip(names, out["segments"]):
        out["extra"][f"pipeline.{name}_s"] = seconds
    if tracer is not None:
        out["layers"] = layer_figures(tracer, rep)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
