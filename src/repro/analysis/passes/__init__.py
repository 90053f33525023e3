"""Pluggable lint passes for ``repro-lint``.

:func:`default_registry` assembles the shipped passes in their canonical
order: the three flow-gate passes (undocumented flows, key hygiene, secure
deletion), the crypto-misuse pass, the resource-protocol (typestate) and
lockset passes (v3), then the volume-flow and durability-ordering passes
(v4) — all opt-in via spec sections. Downstream consumers — the driver,
the SARIF emitter's rule table, baseline fingerprints, ``--explain`` —
enumerate passes from the registry rather than from hard-coded call sites,
so adding a check is one :class:`LintPass` entry here.
"""

from __future__ import annotations

from .base import (
    LintPass,
    PassContext,
    PassRegistry,
    RuleMeta,
    Violation,
)
from .crypto import CRYPTO_PASS, crypto_misuse_lint
from .flows import (
    FLOW_PASSES,
    key_hygiene_lint,
    secure_deletion_lint,
    stale_documented_entries,
    undocumented_flow_lint,
)
from .protocol import PROTOCOL_PASS, protocol_lint
from .lockset import LOCKSET_PASS, lockset_lint
from .volume import (
    VOLUME_PASS,
    build_volume_surface,
    stale_volume_declarations,
    volume_flow_lint,
)
from .durability import DURABILITY_PASS, durability_lint

__all__ = [
    "CRYPTO_PASS",
    "DURABILITY_PASS",
    "FLOW_PASSES",
    "LOCKSET_PASS",
    "LintPass",
    "PROTOCOL_PASS",
    "PassContext",
    "PassRegistry",
    "RuleMeta",
    "VOLUME_PASS",
    "Violation",
    "build_volume_surface",
    "crypto_misuse_lint",
    "default_registry",
    "durability_lint",
    "key_hygiene_lint",
    "lockset_lint",
    "protocol_lint",
    "secure_deletion_lint",
    "stale_documented_entries",
    "stale_volume_declarations",
    "undocumented_flow_lint",
    "volume_flow_lint",
]


def default_registry() -> PassRegistry:
    registry = PassRegistry()
    for lint_pass in FLOW_PASSES:
        registry.register(lint_pass)
    registry.register(CRYPTO_PASS)
    registry.register(PROTOCOL_PASS)
    registry.register(LOCKSET_PASS)
    registry.register(VOLUME_PASS)
    registry.register(DURABILITY_PASS)
    return registry
