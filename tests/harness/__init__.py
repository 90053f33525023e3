"""Deterministic concurrency test harness.

Gates the concurrency subsystem (MVCC in :mod:`repro.engine.mvcc`, the
session front end in :mod:`repro.server.frontend`, and sharding in
:mod:`repro.server.sharding`): every interleaving is driven by a seeded
scheduler over the simulated clock, so a failing interleaving replays
exactly from its printed seed. See :mod:`.driver` for
the drivers and :mod:`.workloads` for the E7/E13-shaped statement streams.
"""

from .driver import (
    InterleavingDriver,
    InterleavingResult,
    artifact_fingerprint,
    round_robin_scripts,
    run_frontend,
    run_serial,
)
from .workloads import e7_statements, e13_statements

__all__ = [
    "InterleavingDriver",
    "InterleavingResult",
    "artifact_fingerprint",
    "e13_statements",
    "e7_statements",
    "round_robin_scripts",
    "run_frontend",
    "run_serial",
]
