"""repro — reproduction of "Why Your Encrypted Database Is Not Secure"
(Grubbs, Ristenpart, Shmatikov; HotOS 2017).

The library has four layers; see DESIGN.md for the full inventory:

* **Substrate** — a simulated MySQL/InnoDB-class DBMS that produces the real
  artifact set: :mod:`repro.sql`, :mod:`repro.storage`, :mod:`repro.engine`,
  :mod:`repro.server`, :mod:`repro.memory`.
* **Encrypted databases** — the systems the paper attacks, running on the
  substrate: :mod:`repro.crypto`, :mod:`repro.edb`.
* **Snapshot attacks** — scenario capture and forensics:
  :mod:`repro.snapshot`, :mod:`repro.forensics`.
* **Inference attacks + workloads** — :mod:`repro.attacks`,
  :mod:`repro.workloads`.

Quickstart::

    from repro import MySQLServer, ServerConfig, AttackScenario, capture

    server = MySQLServer(ServerConfig(query_cache_enabled=True))
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'secret')")
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    snap.require("memory_dump").count_locations("secret")   # > 0
"""

from .clock import SimClock
from .errors import ReproError
from .server import MySQLServer, QueryResult, ServerConfig, Session
from .snapshot import AttackScenario, Snapshot, StateQuadrant, capture
from .memory import MemoryDump
from .obs import Instrumentation
from .replication import ReplicatedDeployment

__version__ = "1.0.0"

__all__ = [
    "SimClock",
    "ReproError",
    "MySQLServer",
    "ServerConfig",
    "QueryResult",
    "Session",
    "AttackScenario",
    "StateQuadrant",
    "Snapshot",
    "capture",
    "MemoryDump",
    "Instrumentation",
    "ReplicatedDeployment",
    "__version__",
]
