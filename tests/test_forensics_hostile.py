"""Forensic readers on hostile input: truncated, bit-flipped and spliced
artifacts give a result or a ``ReproError``, never an ``IndexError``,
``struct.error`` or ``UnicodeDecodeError``.

The mutations are seeded, so a failure names the seed that replays it.
"""

import os
import random
import struct

import pytest

from repro.errors import ReproError
from repro.forensics import (
    carve_spans,
    extract_trace_report,
    infer_access_paths,
    parse_dump_text,
    parse_trace_store,
    parse_wal_segments,
    read_binlog_text,
    read_checkpoints,
    read_leaf_entries,
    reconstruct_modifications,
    scan_for_query,
    scan_for_tokens,
)
from repro.forensics.memory_scan import carve_statements_containing
from repro.memory import MemoryDump
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, capture
from repro.storage.paged.format import PAGED_PAGE_SIZE, checksum_of

#: Mutated inputs per reader and mutation kind.
MUTATIONS = 200
#: The trace-store and memory-dump scans cost ~8 ms an input; fewer of
#: them keep those six cases under 2 s together.
SCAN_MUTATIONS = 30

#: A statement carrying a hex token, and the marker scanned for with it.
TOKEN_QUERY = "SELECT * FROM t WHERE name = '" + "0123456789abcdef" * 3 + "'"
MARKER = "0123456789abcdef"


@pytest.fixture(scope="module")
def artifacts():
    """Every artifact the readers parse, from one small workload."""
    server = MySQLServer(ServerConfig(obs_enabled=True))
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)")
    for i in range(60):
        server.execute(
            session, f"INSERT INTO t (id, v, name) VALUES ({i}, {i - 30}, '{'n' * 60}{i}')"
        )
    server.execute(session, "UPDATE t SET v = 1, name = 'héllo' WHERE id = 3")
    server.execute(session, "DELETE FROM t WHERE id = 4")
    for i in range(0, 60, 7):
        server.execute(session, f"SELECT * FROM t WHERE id = {i}")
    server.execute(session, TOKEN_QUERY)
    server.engine.checkpoint()
    snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
    dump_text = server.dump_buffer_pool().to_text()
    (segment, wal), = snap.require("wal_segments").items()
    # The segment file itself: the log, then the zeros it was preallocated with.
    with open(os.path.join(server.engine.wal.wal_dir, segment), "rb") as fh:
        wal_file = fh.read()
    server.close()
    return {
        "tablespace": snap.require("tablespace_images")["t"],
        "redo": snap.require("redo_log_raw"),
        "undo": snap.require("undo_log_raw"),
        "wal": wal,
        "wal_file": wal_file,
        "wal_file_live": wal_file,
        "wal_name": segment,
        "dump": dump_text.encode(),
        "binlog": snap.require("binlog_text").encode(),
        "obs_trace": snap.require("obs_trace_raw"),
        "memory": snap.require("memory_dump").data,
    }


def truncate(rng, data):
    return data[:rng.randrange(len(data))]


def bit_flip(rng, data):
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        bit = rng.randrange(len(out) * 8)
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def splice(rng, data):
    """A run of the input copied over another place in it."""
    length = rng.randint(1, max(1, len(data) // 4))
    src = rng.randrange(len(data) - length + 1)
    dst = rng.randrange(len(data) - length + 1)
    return data[:dst] + data[src:src + length] + data[dst + length:]


def resealed(mutate):
    """``mutate``, then fix every page checksum so the decoders see it."""

    def run(rng, image):
        out = bytearray(mutate(rng, image))
        for start in range(0, len(out) - PAGED_PAGE_SIZE + 1, PAGED_PAGE_SIZE):
            page = bytes(out[start:start + PAGED_PAGE_SIZE])
            struct.pack_into("<I", out, start, checksum_of(page))
        return bytes(out)

    return run


def live_prefix(mutate, length):
    """``mutate`` on the file's first ``length`` bytes (the live log), with
    the file's zero tail put back after it: a corrupt or torn frame is then
    followed by zeros, where the reader must end the log."""

    def run(rng, data):
        return mutate(rng, data[:length]) + data[length:]

    return run


def carve_tablespace(a, data):
    return list(read_leaf_entries(data))


def carve_logs(a, data):
    kind = a["mutated"]
    redo = data if kind == "redo" else a["redo"]
    undo = data if kind == "undo" else a["undo"]
    return reconstruct_modifications(redo, undo)


def carve_wal(a, data):
    segments = {a["wal_name"]: data}
    return parse_wal_segments(segments), read_checkpoints(segments)


def carve_dump(a, data):
    return infer_access_paths(parse_dump_text(data.decode("latin-1")))


def carve_binlog(a, data):
    return read_binlog_text(data.decode("latin-1"))


def carve_trace(a, data):
    spans = carve_spans(data)
    return spans, parse_trace_store(data), extract_trace_report(data)


def carve_memory(a, data):
    dump = MemoryDump(data)
    found = (
        scan_for_tokens(dump),
        scan_for_query(dump, TOKEN_QUERY, MARKER),
        carve_statements_containing(dump, MARKER),
    )
    return found, carve_trace(a, data)


READERS = {
    "tablespace": carve_tablespace,
    "redo": carve_logs,
    "undo": carve_logs,
    "wal": carve_wal,
    "wal_file": carve_wal,
    "wal_file_live": carve_wal,
    "dump": carve_dump,
    "binlog": carve_binlog,
    "obs_trace": carve_trace,
    "memory": carve_memory,
}

KINDS = {"truncate": truncate, "bit_flip": bit_flip, "splice": splice}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("artifact", sorted(READERS))
def test_mutations_never_crash_a_reader(artifacts, artifact, kind):
    reader, original = READERS[artifact], artifacts[artifact]
    intact = None
    if artifact != "memory":  # a heap dump is not one parseable trace store
        intact = reader(dict(artifacts, mutated=artifact), original)  # it parses
    mutate = KINDS[kind]
    if artifact == "tablespace" and kind != "truncate":
        mutate = resealed(mutate)  # past the checksum, into the page decoders
    if artifact == "wal_file_live":
        mutate = live_prefix(mutate, len(artifacts["wal"]))
    count = SCAN_MUTATIONS if artifact in ("obs_trace", "memory") else MUTATIONS
    reached = 0  # mutations that changed what the reader returns
    for seed in range(count):
        data = mutate(random.Random(seed), original)
        try:
            reached += reader(dict(artifacts, mutated=artifact), data) != intact
        except ReproError:
            reached += 1
        except Exception as exc:
            raise AssertionError(f"{artifact}/{kind} seed {seed} crashed") from exc
    if artifact == "wal_file_live":
        # Unlike ``wal_file``, whose mutations mostly land in the zero
        # padding, these reach the log.
        assert reached > count // 2, reached
