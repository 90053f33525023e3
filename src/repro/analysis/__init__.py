"""repro.analysis — static plaintext-taint analysis and leakage-spec gate.

An AST-based, no-dependency information-flow analyzer for this codebase.
It reads a leakage spec (sources, sinks, documented paper flows), propagates
taint kinds through a whole-package call graph, and runs a registry of lint
passes over the result:

- any source→sink flow not documented in the spec (``undocumented-flow``),
- key material reaching a persistence sink, allowlisted or not
  (``key-hygiene``),
- memory release points on taint-carrying paths that never consult
  ``secure_delete`` (``secure-deletion``, the paper's E6 pattern),
- crypto misuse — nonce reuse, key material on display surfaces,
  deterministic encryption outside declared DET paths (``crypto-*``,
  enabled by a spec ``crypto_policy`` section),
- resource-protocol (typestate) violations over an exception-aware CFG —
  pin/unpin leaks on any path, dirty frames released clean, engine
  mutation outside a live transaction, undeclared residue-sensitive frees
  (``protocol-*``, enabled by a spec ``resource_protocols`` section),
- Eraser-style lockset races: shared containers whose may-happen-in-
  parallel accesses from server/executor paths hold no common lock
  (``lockset-race``, enabled by a spec ``concurrency`` section).

Runs are incremental when a cache directory is supplied (see
:mod:`.driver` and :mod:`.cache`), and findings carry stable fingerprints
for baseline diffing and SARIF output (see :mod:`.fingerprint` and
:mod:`.sarif`).

Entry points: :func:`run_analysis` (library) and ``repro-lint`` /
``python -m repro.analysis`` (CLI).
"""

from __future__ import annotations

from .cfg import CFG, build_cfg
from .driver import ANALYZER_VERSION, run_analysis
from .facts import FunctionFacts, extract_all_facts, facts_needed
from .fingerprint import (
    apply_baseline,
    attach_fingerprints,
    load_baseline,
    save_baseline,
    violation_fingerprint,
)
from .modindex import PackageIndex
from .passes import (
    LintPass,
    PassContext,
    PassRegistry,
    RuleMeta,
    Violation,
    default_registry,
    key_hygiene_lint,
    secure_deletion_lint,
    stale_documented_entries,
    undocumented_flow_lint,
)
from .report import AnalysisReport, build_report
from .resolve import Resolver
from .sarif import to_sarif, to_sarif_json
from .spec import LeakageSpec, load_spec
from .taint import Contribution, Flow, TaintEngine, TaintResult

__version__ = ANALYZER_VERSION

__all__ = [
    "ANALYZER_VERSION",
    "AnalysisReport",
    "CFG",
    "Contribution",
    "Flow",
    "FunctionFacts",
    "LeakageSpec",
    "LintPass",
    "PackageIndex",
    "PassContext",
    "PassRegistry",
    "Resolver",
    "RuleMeta",
    "TaintEngine",
    "TaintResult",
    "Violation",
    "__version__",
    "apply_baseline",
    "attach_fingerprints",
    "build_cfg",
    "build_report",
    "default_registry",
    "extract_all_facts",
    "facts_needed",
    "key_hygiene_lint",
    "load_baseline",
    "load_spec",
    "run_analysis",
    "save_baseline",
    "secure_deletion_lint",
    "stale_documented_entries",
    "to_sarif",
    "to_sarif_json",
    "undocumented_flow_lint",
    "violation_fingerprint",
]
