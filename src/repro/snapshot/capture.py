"""Snapshot capture: extract exactly what each attack scenario yields.

A :class:`Snapshot` is a frozen bag of artifacts keyed by registry name;
artifacts the scenario cannot see are simply absent. Downstream forensics
must work only from what is present: :meth:`Snapshot.get` returns ``None``
for an absent artifact, and :meth:`Snapshot.require` raises
:class:`repro.errors.SnapshotError`, which keeps experiments honest about
their threat model.

:func:`capture` is a generic walk over the artifact registry
(:mod:`repro.snapshot.registry`): it filters the registered providers by
the scenario's state quadrants, the SQL-injection escalation gate, and
each provider's ``enabled`` predicate, then stores whatever each capture
callable returns. The same walk serves every backend — MySQL servers,
Mongo document stores, Spark clusters — distinguished only by the
``backend`` tag their providers registered under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..errors import SnapshotError
from .registry import ArtifactRegistry, default_registry
from .scenario import AttackScenario


@dataclass(frozen=True)
class Snapshot:
    """One static observation of the DB-hosting system."""

    scenario: AttackScenario
    captured_at: int
    #: Captured artifact values, keyed by registered provider name.
    artifacts: Mapping[str, object] = field(default_factory=dict)

    def get(self, name: str):
        """The artifact value, or ``None`` when the scenario lacks it."""
        return self.artifacts.get(name)

    def require(self, name: str):
        """The artifact value; raises SnapshotError when absent."""
        value = self.artifacts.get(name)
        if value is None:
            raise SnapshotError(
                f"{self.scenario.value} snapshot does not include {name}"
            )
        return value


def capture(
    target,
    scenario: AttackScenario,
    escalated: bool = False,
    full_state: bool = True,
    backend: str = "mysql",
    registry: Optional[ArtifactRegistry] = None,
) -> Snapshot:
    """Capture the state ``scenario`` reveals from ``target``.

    ``escalated`` applies only to SQL injection: it models the
    code-execution escalation the paper cites ("SQL injection can be
    leveraged into arbitrary code execution that bypasses all access
    restrictions"), which adds the process memory dump and internal
    structures to the in-band diagnostic haul.

    ``full_state`` applies only to VM snapshots. Paper §2: "Some VM
    snapshots only contain the persistent storage, whereas full-state
    snapshots also include the VM's memory and CPU registers. We focus on
    the latter." ``full_state=False`` models the storage-only leak, which
    degrades a VM snapshot to the disk-theft artifact set.

    ``backend`` selects which registered providers apply (``"mysql"``,
    ``"mongo"``, ``"spark"``); ``registry`` defaults to the shipped
    :func:`default_registry`.
    """
    reg = registry if registry is not None else default_registry()
    now = target.clock.timestamp()
    artifacts: Dict[str, object] = {}
    # The plan is the registry pre-filtered by quadrant and by the
    # SQL-injection escalation gate (the raw data structures are "strictly
    # internal to MySQL" (Section 5): injection only gets them after
    # escalating to arbitrary code execution). Only the dynamic ``enabled``
    # predicate remains to be checked against the live target.
    for name, capture_fn, enabled in reg.capture_plan(
        backend, scenario, escalated, full_state
    ):
        if enabled is not None and not enabled(target):
            continue
        artifacts[name] = capture_fn(target)
    return Snapshot(scenario=scenario, captured_at=now, artifacts=artifacts)
