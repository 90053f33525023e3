"""The connection/session front end: admission, queueing, dispatch.

:class:`ServerFrontend` sits in front of one :class:`MySQLServer` and
simulates a production connection layer: thousands of client sessions
submit statements into bounded per-session FIFO queues; a worker pool of
``num_workers`` dispatchers drains them under a pluggable
:class:`SchedulingPolicy`. Statements execute atomically (the engine's
interleaving granularity), so scheduling decides the *order* in which
sessions' statements interleave — with ``FIFO`` the dispatch order equals
the arrival order, which is what makes the concurrency harness's
byte-equivalence check against a serial run meaningful.

Everything the scheduler observes is telemetry — and telemetry is leakage.
Queue-depth samples and per-request arrival timestamps reconstruct the
offered load and the per-session submission pattern even after the
statements themselves are gone; they register as the ``scheduler_queue``
snapshot artifact (volatile DB state, escalation required), growing the
Figure-1 matrix alongside the engine's log surfaces.

Shared scheduler state is guarded by a real ``threading.Lock`` even though
the simulation is single-threaded: the repro-lint lockset pass audits
this module as a concurrency entry point and the lock names the guard
(``leakage_spec.json`` → ``concurrency.lock_guards``).
"""

from __future__ import annotations

import enum
import random
import threading
from array import array
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from ..errors import SchedulerError
from .server import MySQLServer, QueryResult
from .session import Session

#: Default admission bound: total queued-but-undispatched statements.
DEFAULT_QUEUE_CAPACITY = 4096


class SchedulingPolicy(enum.Enum):
    """How the dispatcher picks the next session to serve."""

    FIFO = "fifo"      #: global arrival order (serial-equivalent)
    FAIR = "fair"      #: round-robin across sessions with queued work
    RANDOM = "random"  #: seeded random session pick (interleaving fuzzing)


class ClientRequest(NamedTuple):
    """One queued statement: who sent it, what, and when."""

    seq: int
    session_id: int
    sql: str
    arrival_ts: int


class CompletedRequest(NamedTuple):
    """A dispatched request and its outcome (result or error).

    The front end hands each completion to its caller and keeps none:
    only :class:`QueueTelemetry` outlives a statement.
    """

    request: ClientRequest
    result: Optional[QueryResult]
    error: Optional[str]


class QueueTelemetry:
    """What the scheduler remembers — the ``scheduler_queue`` artifact.

    ``arrivals`` is ``(seq, session_id, arrival_ts)`` per admitted request,
    kept as one flat ``array('q')`` of those triples and rebuilt as tuples
    on read; ``depth_samples`` is the total queue depth after every
    admission and every dispatch. Both survive until the front end is
    detached: they are volatile DB state an escalated snapshot captures.
    """

    def __init__(self) -> None:
        self._arrivals = array("q")
        self.depth_samples: List[int] = []
        self.dispatched = 0
        self.rejected = 0

    def record_arrival(self, seq: int, session_id: int, arrival_ts: int) -> None:
        # Packed first, so a value outside i64 raises with no partial triple.
        self._arrivals.extend(array("q", (seq, session_id, arrival_ts)))

    @property
    def arrivals(self) -> List[Tuple[int, int, int]]:
        flat = self._arrivals
        return list(zip(flat[0::3], flat[1::3], flat[2::3]))

    def as_dict(self) -> Dict[str, object]:
        return {
            "arrivals": tuple(self.arrivals),
            "depth_samples": tuple(self.depth_samples),
            "dispatched": self.dispatched,
            "rejected": self.rejected,
        }


class SessionScheduler:
    """Bounded per-session FIFO queues + a dispatch policy."""

    def __init__(
        self,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise SchedulerError(f"queue capacity must be positive, got {capacity}")
        self.policy = policy
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._queues: Dict[int, Deque[ClientRequest]] = {}
        # Sessions with queued work in rotation order, maintained only under
        # the FAIR policy: no other policy pops it, so it would only grow.
        self._rr_order: Deque[int] = deque()
        # Global arrival order, maintained only under the FIFO policy (the
        # policy is fixed per scheduler): per-session queues are FIFO and
        # seqs are global, so FIFO dispatch is a single O(1) popleft here
        # instead of a min-scan over every session's head-of-line seq.
        self._fifo: Deque[ClientRequest] = deque()
        self._depth = 0
        self._next_seq = 0
        self.telemetry = QueueTelemetry()

    @property
    def queue_depth(self) -> int:
        return self._depth

    def submit(self, session_id: int, sql: str, arrival_ts: int) -> ClientRequest:
        """Admit one statement; rejects (loudly) when the bound is hit."""
        with self._lock:
            if self._depth >= self.capacity:
                self.telemetry.rejected += 1
                raise SchedulerError(
                    f"scheduler queue full ({self.capacity} queued statements); "
                    f"session {session_id} rejected"
                )
            request = ClientRequest(
                seq=self._next_seq,
                session_id=session_id,
                sql=sql,
                arrival_ts=arrival_ts,
            )
            self.telemetry.record_arrival(request.seq, session_id, arrival_ts)
            self._next_seq += 1
            queue = self._queues.get(session_id)
            if queue is None:
                queue = deque()
                self._queues[session_id] = queue
            if not queue and self.policy is SchedulingPolicy.FAIR:
                self._rr_order.append(session_id)
            queue.append(request)
            if self.policy is SchedulingPolicy.FIFO:
                self._fifo.append(request)
            self._depth += 1
            self.telemetry.depth_samples.append(self._depth)
            return request

    def next_request(self) -> Optional[ClientRequest]:
        """Pop the next statement per policy; ``None`` when idle."""
        with self._lock:
            if self._depth == 0:
                return None
            if self.policy is SchedulingPolicy.FIFO:
                session_id = self._fifo[0].session_id
            elif self.policy is SchedulingPolicy.FAIR:
                while not self._queues.get(self._rr_order[0]):
                    self._rr_order.popleft()
                session_id = self._rr_order.popleft()
            else:  # RANDOM
                ready = sorted(sid for sid, q in self._queues.items() if q)
                session_id = self._rng.choice(ready)
            request = self._queues[session_id].popleft()
            if self.policy is SchedulingPolicy.FIFO:
                self._fifo.popleft()
            if self.policy is SchedulingPolicy.FAIR and self._queues[session_id]:
                self._rr_order.append(session_id)
            self._depth -= 1
            self.telemetry.dispatched += 1
            self.telemetry.depth_samples.append(self._depth)
            return request


class ServerFrontend:
    """A worker pool draining the scheduler into one server.

    ``num_workers`` bounds how many sessions are *in service* per drain
    round; with atomic statement execution that caps dispatch batch size,
    not true parallelism — determinism is the point (same seed, same
    policy, same submissions ⇒ same interleaving, replayable from the
    printed seed on harness failures).
    """

    def __init__(
        self,
        server: MySQLServer,
        num_workers: int = 8,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        max_sessions: int = 4096,
        seed: int = 0,
    ) -> None:
        if num_workers < 1:
            raise SchedulerError(f"need at least one worker, got {num_workers}")
        if max_sessions < 1:
            raise SchedulerError(f"need at least one session, got {max_sessions}")
        self.server = server
        self.num_workers = num_workers
        self.max_sessions = max_sessions
        self.scheduler = SessionScheduler(
            policy=policy, capacity=queue_capacity, seed=seed
        )
        self._lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        server.attach_frontend(self)

    # -- sessions -------------------------------------------------------------

    def open_session(self, user: str = "app") -> Session:
        """Admit one client connection (bounded, like ``max_connections``)."""
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise SchedulerError(
                    f"connection limit reached ({self.max_sessions} sessions)"
                )
        session = self.server.connect(user)
        with self._lock:
            self._sessions[session.session_id] = session
        return session

    def close_session(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
        self.server.disconnect(session)

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    # -- submission / dispatch ------------------------------------------------

    def submit(self, session: Session, sql: str) -> ClientRequest:
        """Queue one statement for the session (does not execute yet)."""
        if session.session_id not in self._sessions:
            raise SchedulerError(
                f"session {session.session_id} is not registered with this "
                "front end"
            )
        return self.scheduler.submit(
            session.session_id, sql, self.server.clock.timestamp()
        )

    def dispatch_one(self) -> Optional[CompletedRequest]:
        """Serve the next scheduled statement; ``None`` when idle.

        Errors do not kill the worker: they are captured on the completed
        record (a client would see them on its own connection) and the
        drain continues.
        """
        request = self.scheduler.next_request()
        if request is None:
            return None
        session = self._sessions.get(request.session_id)
        if session is None:
            return CompletedRequest(request, None, "session closed before dispatch")
        try:
            return CompletedRequest(
                request, self.server.execute(session, request.sql), None
            )
        except Exception as exc:
            return CompletedRequest(request, None, f"{type(exc).__name__}: {exc}")

    def drain(self) -> Tuple[CompletedRequest, ...]:
        """Run workers until every queued statement has been served.

        Returns the completions served, in dispatch order; the front end
        keeps none of them. Worker rounds serve at most ``num_workers``
        statements before re-consulting the scheduler, so FAIR/RANDOM
        policies re-evaluate readiness at the same cadence a pool of
        blocking workers would.
        """
        served: List[CompletedRequest] = []
        while True:
            before = len(served)
            for _ in range(self.num_workers):
                completed = self.dispatch_one()
                if completed is None:
                    break
                served.append(completed)
            if len(served) == before:
                return tuple(served)

    def queue_telemetry(self) -> Dict[str, object]:
        """The ``scheduler_queue`` snapshot artifact payload."""
        return self.scheduler.telemetry.as_dict()


__all__ = [
    "DEFAULT_QUEUE_CAPACITY",
    "ClientRequest",
    "CompletedRequest",
    "QueueTelemetry",
    "SchedulingPolicy",
    "ServerFrontend",
    "SessionScheduler",
]
