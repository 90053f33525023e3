"""Deterministic interleaving drivers.

Everything here is replayable: the only randomness is a ``random.Random``
seeded explicitly, and the only clock is the server's simulated one.
Statements execute atomically, so an *interleaving* is fully described by
the order in which sessions' statements are dispatched — which is exactly
what :class:`InterleavingDriver` records as its trace.

``run_serial`` / ``run_frontend`` are the byte-equivalence pair: the same
scripts executed directly in arrival order, and through the scheduler
front end. With the FIFO policy the dispatch order equals the arrival
order, so every captured artifact must be byte-identical between the two
(:func:`artifact_fingerprint` compares them, excluding the scheduler's own
queue telemetry, which only exists when a front end is attached).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.memory import MemoryDump
from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import (
    CompletedRequest,
    SchedulingPolicy,
    ServerFrontend,
)
from repro.snapshot import AttackScenario, capture

#: Artifacts that exist only in one of the serial/concurrent pair.
EQUIVALENCE_EXCLUDED = ("scheduler_queue",)


@dataclass(frozen=True)
class InterleavingResult:
    """One deterministic run: the seed replays it exactly."""

    seed: int
    #: Dispatch order: ``(session_index, statement)`` per executed statement.
    trace: Tuple[Tuple[int, str], ...]
    #: Errors raised by statements, as ``(session_index, statement, error)``.
    errors: Tuple[Tuple[int, str, str], ...]
    server: MySQLServer

    def describe(self) -> str:
        """Replay instructions for failure messages (prints the seed)."""
        return (
            f"interleaving seed={self.seed}: "
            f"{len(self.trace)} statements dispatched, "
            f"{len(self.errors)} errored; "
            f"replay with InterleavingDriver(..., seed={self.seed}).run()"
        )


class InterleavingDriver:
    """Seeded random interleaving of per-session statement scripts.

    ``scripts[i]`` is session ``i``'s statement sequence; per-session order
    is preserved, cross-session order is drawn from ``random.Random(seed)``.
    Library errors (write conflicts, duplicate keys, ...) are recorded per
    statement and do not stop the run — concurrency tests assert on them.
    """

    def __init__(
        self,
        scripts: Sequence[Sequence[str]],
        setup: Sequence[str] = (),
        config: Optional[ServerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.scripts = [list(s) for s in scripts]
        self.setup = list(setup)
        self.config = config
        self.seed = seed

    def run(self) -> InterleavingResult:
        server = MySQLServer(self.config)
        admin = server.connect("harness-admin")
        for statement in self.setup:
            server.execute(admin, statement)
        server.disconnect(admin)

        sessions = [
            server.connect(f"harness-{i}") for i in range(len(self.scripts))
        ]
        position = [0] * len(self.scripts)
        rng = random.Random(self.seed)
        trace: List[Tuple[int, str]] = []
        errors: List[Tuple[int, str, str]] = []
        while True:
            ready = [
                i for i, script in enumerate(self.scripts)
                if position[i] < len(script)
            ]
            if not ready:
                break
            idx = rng.choice(ready)
            statement = self.scripts[idx][position[idx]]
            position[idx] += 1
            trace.append((idx, statement))
            try:
                server.execute(sessions[idx], statement)
            except ReproError as exc:
                errors.append((idx, statement, f"{type(exc).__name__}: {exc}"))
        return InterleavingResult(
            seed=self.seed,
            trace=tuple(trace),
            errors=tuple(errors),
            server=server,
        )


def round_robin_scripts(
    statements: Sequence[str], num_sessions: int
) -> List[List[str]]:
    """Deal one statement stream round-robin onto ``num_sessions`` scripts."""
    scripts: List[List[str]] = [[] for _ in range(num_sessions)]
    for i, statement in enumerate(statements):
        scripts[i % num_sessions].append(statement)
    return scripts


def _arrival_order(scripts: Sequence[Sequence[str]]) -> List[Tuple[int, str]]:
    """The canonical arrival order: round-robin across sessions."""
    order: List[Tuple[int, str]] = []
    position = 0
    while True:
        emitted = False
        for idx, script in enumerate(scripts):
            if position < len(script):
                order.append((idx, script[position]))
                emitted = True
        if not emitted:
            return order
        position += 1


def run_serial(
    scripts: Sequence[Sequence[str]],
    setup: Sequence[str] = (),
    config: Optional[ServerConfig] = None,
) -> MySQLServer:
    """Execute the scripts directly, in canonical arrival order."""
    server = MySQLServer(config)
    admin = server.connect("harness-admin")
    for statement in setup:
        server.execute(admin, statement)
    server.disconnect(admin)
    sessions = [server.connect(f"harness-{i}") for i in range(len(scripts))]
    for idx, statement in _arrival_order(scripts):
        server.execute(sessions[idx], statement)
    return server


def run_frontend(
    scripts: Sequence[Sequence[str]],
    setup: Sequence[str] = (),
    config: Optional[ServerConfig] = None,
    policy: SchedulingPolicy = SchedulingPolicy.FIFO,
    seed: int = 0,
    queue_capacity: int = 1 << 20,
) -> Tuple[MySQLServer, ServerFrontend, Tuple[CompletedRequest, ...]]:
    """Run the same scripts through the scheduler front end.

    Returns the server, the front end and the completions ``drain``
    served, in dispatch order (the front end itself keeps none).
    """
    server = MySQLServer(config)
    admin = server.connect("harness-admin")
    for statement in setup:
        server.execute(admin, statement)
    server.disconnect(admin)
    frontend = ServerFrontend(
        server,
        policy=policy,
        queue_capacity=queue_capacity,
        seed=seed,
    )
    sessions = [frontend.open_session(f"harness-{i}") for i in range(len(scripts))]
    for idx, statement in _arrival_order(scripts):
        frontend.submit(sessions[idx], statement)
    return server, frontend, frontend.drain()


def artifact_fingerprint(
    server: MySQLServer,
    exclude: Sequence[str] = EQUIVALENCE_EXCLUDED,
) -> Dict[str, str]:
    """SHA-256 of every captured artifact's canonical form.

    Captures the full-compromise snapshot (everything, escalated) and
    hashes each artifact's ``repr`` — dataclass reprs are deterministic
    functions of their field values, so equal fingerprints mean equal
    artifact *contents*, byte images included.
    """
    snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
    fingerprints: Dict[str, str] = {}
    for name in sorted(snap.artifacts):
        if name in exclude:
            continue
        value = snap.artifacts[name]
        if isinstance(value, MemoryDump):
            canonical = value.data  # default repr carries an object address
        else:
            canonical = repr(value).encode("utf-8")
        fingerprints[name] = hashlib.sha256(canonical).hexdigest()
    return fingerprints
