"""Leakage-spec loading and validation.

The leakage spec is the machine-readable contract between the paper and the
code: it declares where secret-derived data *enters* the system (sources),
where it would be *observable* by the paper's snapshot attacker (sinks), and
which source→sink flows are *documented* reproductions of the paper's
experiments (E1–E13 and the supplementary runs in EXPERIMENTS.md). The
analyzer fails the build on any flow that is not documented.

The canonical format is JSON (loadable on every supported interpreter);
``.toml`` specs are accepted when :mod:`tomllib` is available (3.11+).

Spec semantics worth knowing:

``via: "return"`` sources are *retainting*: the call's result carries
exactly the declared taint kind, replacing whatever kinds flowed into the
arguments. This is how ``RndCipher.encrypt`` launders ``key``/``plaintext``
into ``rnd_ciphertext`` — the ciphertext is observable, but it is not the
key, and modelling it as the key would drown the key-hygiene lint in false
positives.

``key_taints`` × ``forbidden_categories`` flows can never be allowlisted:
listing one under ``documented_flows`` is itself a spec error. There is no
paper experiment in which writing key material to a persistence artifact is
acceptable behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import AnalysisError
from ..snapshot.scenario import ARTIFACT_COLUMNS, StateQuadrant

#: Every sink must declare one of these categories. ``persistence`` sinks
#: survive restart (logs, tablespaces); ``memory`` sinks are heap-resident;
#: ``diagnostic`` covers performance_schema-style introspection tables;
#: ``telemetry`` is the obs subsystem; ``capture`` is the snapshot object
#: itself (the attacker's viewpoint, so *everything* legitimately reaches it).
SINK_CATEGORIES = ("persistence", "memory", "diagnostic", "telemetry", "capture")


@dataclass(frozen=True)
class SourceSpec:
    """One taint source: a callable that introduces a taint kind."""

    callable: str
    taint: str
    via: str  # "return" (retainting) or "param:<name>"
    note: str = ""

    @property
    def param(self) -> str:
        """The parameter name for ``param:`` sources (empty for returns)."""
        return self.via[6:] if self.via.startswith("param:") else ""


@dataclass(frozen=True)
class SinkSpec:
    """One sink: a callable whose (selected) arguments are observable."""

    callable: str
    sink: str
    category: str
    params: Tuple[str, ...] = ()  # empty tuple = every argument is observed
    note: str = ""


@dataclass(frozen=True)
class DocumentedFlow:
    """An allowlisted taint→sink pair, justified by paper experiments."""

    taint: str
    sink: str
    experiments: Tuple[str, ...] = ()
    ref: str = ""
    note: str = ""


#: Legal values for snapshot-artifact declarations (Figure 1's axes),
#: taken from the canonical enums so the spec cannot drift from them.
ARTIFACT_QUADRANTS = tuple(q.value for q in StateQuadrant)
ARTIFACT_CLASSES = ARTIFACT_COLUMNS


@dataclass(frozen=True)
class CryptoPolicy:
    """Configuration for the crypto-misuse lint pass.

    The pass only runs when a spec carries a ``crypto_policy`` section, so
    legacy specs (and the minimal fixture specs) are unaffected.
    """

    #: Taint kinds produced by deterministic encryption. Invoking a source
    #: that yields one of these outside ``det_allowed_in`` is flagged —
    #: DET leaks equality, so its use must stay confined to the declared
    #: DET column paths (paper §3.2).
    det_taints: Tuple[str, ...] = ()
    #: Qualname prefixes where DET-producing sources may be invoked.
    det_allowed_in: Tuple[str, ...] = ()
    #: Qualname prefixes where key material may legitimately reach a
    #: formatting/display expression (e.g. the forensics layer printing
    #: *recovered* keys is the attack demo, not a leak).
    key_display_allowed_in: Tuple[str, ...] = ()
    #: Extra parameter names treated as nonce/IV positions (merged with the
    #: built-in ``nonce``/``iv`` defaults).
    nonce_params: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConcurrencyPolicy:
    """Configuration for the lockset lint pass.

    The pass runs when a spec's ``concurrency`` section names entry points.
    """

    #: Class qualnames whose methods are concurrent entry points (server /
    #: executor surfaces). Shared mutable containers those paths reach must
    #: be guarded by one common lock.
    entry_points: Tuple[str, ...] = ()
    #: Attribute/variable name fragments that count as lock guards when an
    #: access site is lexically inside ``with <guard>:``.
    lock_guards: Tuple[str, ...] = ("lock", "_lock", "mutex")
    #: Entry roles that the scheduler topology serializes (never overlap
    #: any other role, nor themselves). Accesses reachable *only* from
    #: these roles are pruned from the lockset intersection.
    serial_entry_points: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ReleaseSpec:
    """One release callable of a protocol resource."""

    callable: str
    #: The parameter receiving the resource being released.
    param: str


@dataclass(frozen=True)
class ResourceSpec:
    """One acquire/release protocol (e.g. buffer-pool frames, txns)."""

    name: str
    acquire: Tuple[str, ...]
    release: Tuple[ReleaseSpec, ...]
    #: Callables that flag a held resource dirty without releasing it.
    mark_dirty: Tuple[str, ...] = ()
    #: Release parameter that carries the dirty flag (empty = the resource
    #: has no dirty protocol and the dirty-unpin rule never fires for it).
    dirty_param: str = ""
    #: Whether a resource still live when an exception propagates *out of*
    #: the function is a leak. True for frames (a pinned frame survives
    #: the exception and starves the pool); false for transactions (the
    #: engine-level session teardown owns the abort).
    leak_on_uncaught: bool = True


@dataclass(frozen=True)
class GuardedMutatorSpec:
    """A callable that must only run inside a live resource (e.g. a txn)."""

    callable: str
    param: str
    resource: str


@dataclass(frozen=True)
class ResourceProtocolsPolicy:
    """Configuration for the resource-protocol (typestate) lint pass.

    The pass only runs when a spec carries a ``resource_protocols`` section.
    """

    resources: Tuple[ResourceSpec, ...] = ()
    guarded_mutators: Tuple[GuardedMutatorSpec, ...] = ()
    #: Callables whose invocation leaves recoverable payload residue
    #: behind (the paper's E4/E6 surface — ``free_page`` keeps the page
    #: image on the free list).
    residue_sensitive: Tuple[str, ...] = ()
    #: (caller qualname, justification) pairs declaring which functions
    #: are *allowed* to call residue-sensitive callables. Any other caller
    #: is flagged — and the rule can never be baselined away.
    residue_handlers: Tuple[Tuple[str, str], ...] = ()

    def handler_quals(self) -> FrozenSet[str]:
        return frozenset(qual for qual, _ in self.residue_handlers)


@dataclass(frozen=True)
class VolumeDeclaration:
    """One declared size/cardinality flow into a persisted sink.

    The declaration is the machine-readable row of the volume attack
    surface: *what* quantity leaks (``source`` expression and its
    ``granularity``), *where* it lands (``sinks``), and which planned
    volume-attack experiment consumes it (``experiments``, E14+).
    """

    taint: str
    sinks: Tuple[str, ...]
    source: str
    granularity: str
    experiments: Tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class VolumeSurfacePolicy:
    """Configuration for the volume-flow lint pass.

    The pass only runs when a spec carries a ``volume_surface`` section.
    When present, the taint engine grows a size-provenance domain:
    ``len()`` of tainted data yields ``length_taint``, and calls to the
    declared ``duration_sources`` (wall-clock reads) yield
    ``duration_taint``. Every volume flow into a sink whose category is
    in ``categories`` must appear under ``declared`` — Poddar et al.'s
    volume attacker needs nothing but these counts.
    """

    length_taint: str = "volume.length"
    duration_taint: str = "volume.duration"
    #: Dotted callables whose return value is a wall-clock/duration
    #: measurement (e.g. ``time.perf_counter``). Matched at unresolved
    #: call sites, so stdlib clocks can be declared without stubs.
    duration_sources: Tuple[str, ...] = ()
    #: Sink categories that persist (or export) the observed value —
    #: flows into these must be declared. ``memory`` is deliberately
    #: excluded by default: heap-resident sizes are the snapshot
    #: attacker's problem, already covered by the plaintext flows.
    categories: Tuple[str, ...] = (
        "persistence",
        "telemetry",
        "diagnostic",
        "capture",
    )
    declared: Tuple[VolumeDeclaration, ...] = ()

    def volume_kinds(self) -> FrozenSet[str]:
        return frozenset((self.length_taint, self.duration_taint))

    def declared_pairs(self) -> Set[Tuple[str, str]]:
        return {(d.taint, s) for d in self.declared for s in d.sinks}


#: Rule ids the durability pass can emit (and that ``declared`` entries
#: may waive with a justification).
DURABILITY_RULES = (
    "durability-unlogged-mutation",
    "durability-unflushed-commit",
    "durability-append-after-flush",
)


@dataclass(frozen=True)
class DurabilityDeclaration:
    """One waived durability finding, justified by protocol invariants."""

    rule: str
    #: Scope function qualname the finding is inside.
    function: str
    #: Callable name at the flagged call site (e.g. ``insert``,
    #: ``append_commit``).
    call: str
    reason: str
    experiments: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DurabilityProtocolPolicy:
    """Configuration for the durability-ordering lint pass.

    The pass only runs when a spec carries a ``durability_protocol``
    section. All callables are matched *by name* (the last qualname
    component) at call sites inside the declared scope functions —
    receivers such as a tuple-unpacked tree handle are untypeable, and
    name scoping keeps the match precise enough inside the handful of
    WAL-discipline functions.
    """

    #: WAL append callables (undo/redo/CLR frame writers).
    appends: Tuple[str, ...] = ()
    #: Durability barriers (``flush``/fsync of staged frames).
    flushes: Tuple[str, ...] = ()
    #: Commit-record appends — the ack boundary checks (b)/(c) guard.
    commit_appends: Tuple[str, ...] = ()
    #: Page/tree mutation callables that must be covered by an append.
    mutations: Tuple[str, ...] = ()
    #: Scope functions for the unlogged-mutation check.
    logged_mutators: Tuple[str, ...] = ()
    #: Scope functions for the flush-ordering checks.
    commit_functions: Tuple[str, ...] = ()
    declared: Tuple[DurabilityDeclaration, ...] = ()


@dataclass(frozen=True)
class SnapshotArtifactSpec:
    """One declared snapshot artifact, cross-checked against the registry.

    ``repro-lint`` fails when the code registers an artifact the spec does
    not declare, or vice versa, or when the declared quadrant / class /
    backend / sink list disagrees with the registered provider.
    """

    name: str
    backend: str
    quadrant: str
    artifact_class: str
    sinks: Tuple[str, ...] = ()
    note: str = ""


@dataclass
class LeakageSpec:
    """The parsed spec plus derived lookup structure."""

    package: str
    taints: Dict[str, str] = field(default_factory=dict)
    sources: List[SourceSpec] = field(default_factory=list)
    sinks: List[SinkSpec] = field(default_factory=list)
    documented: List[DocumentedFlow] = field(default_factory=list)
    key_taints: Tuple[str, ...] = ()
    forbidden_categories: Tuple[str, ...] = ("persistence",)
    release_points: Tuple[str, ...] = ()
    sanitizers: Tuple[str, ...] = ()
    artifacts: Tuple[str, ...] = ()
    snapshot_artifacts: List[SnapshotArtifactSpec] = field(default_factory=list)
    crypto_policy: Optional[CryptoPolicy] = None
    concurrency: Optional[ConcurrencyPolicy] = None
    resource_protocols: Optional[ResourceProtocolsPolicy] = None
    volume_surface: Optional[VolumeSurfacePolicy] = None
    durability_protocol: Optional[DurabilityProtocolPolicy] = None
    path: str = ""

    def documented_pairs(self) -> Set[Tuple[str, str]]:
        return {(d.taint, d.sink) for d in self.documented}

    def volume_kinds(self) -> FrozenSet[str]:
        """Taint kinds of the size-provenance domain (empty when off)."""
        if self.volume_surface is None:
            return frozenset()
        return self.volume_surface.volume_kinds()

    def sink_ids(self) -> Set[str]:
        return {s.sink for s in self.sinks}

    def sink_category(self, sink_id: str) -> str:
        for s in self.sinks:
            if s.sink == sink_id:
                return s.category
        return ""

    def forbidden_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """(key taint, sink id) pairs that may never occur nor be allowlisted."""
        return frozenset(
            (taint, s.sink)
            for taint in self.key_taints
            for s in self.sinks
            if s.category in self.forbidden_categories
        )

    def validate(self) -> List[str]:
        """Structural checks; returns human-readable problems (empty = ok)."""
        problems: List[str] = []
        declared = set(self.taints)
        for src in self.sources:
            if src.via != "return" and not src.via.startswith("param:"):
                problems.append(
                    f"source {src.callable}: via must be 'return' or "
                    f"'param:<name>', got {src.via!r}"
                )
            if declared and src.taint not in declared:
                problems.append(
                    f"source {src.callable}: undeclared taint kind {src.taint!r}"
                )
        seen_sinks: Dict[str, str] = {}
        for snk in self.sinks:
            if snk.category not in SINK_CATEGORIES:
                problems.append(
                    f"sink {snk.sink} ({snk.callable}): unknown category "
                    f"{snk.category!r}"
                )
            prev = seen_sinks.setdefault(snk.sink, snk.category)
            if prev != snk.category:
                problems.append(
                    f"sink id {snk.sink!r} declared with two categories: "
                    f"{prev!r} and {snk.category!r}"
                )
        ids = self.sink_ids()
        for doc in self.documented:
            if declared and doc.taint not in declared:
                problems.append(
                    f"documented flow {doc.taint}->{doc.sink}: undeclared "
                    f"taint kind {doc.taint!r}"
                )
            if doc.sink not in ids:
                problems.append(
                    f"documented flow {doc.taint}->{doc.sink}: unknown sink "
                    f"id {doc.sink!r}"
                )
        if self.crypto_policy is not None and declared:
            for taint in self.crypto_policy.det_taints:
                if taint not in declared:
                    problems.append(
                        f"crypto_policy: undeclared det taint kind {taint!r}"
                    )
        if self.resource_protocols is not None:
            seen_resources: Set[str] = set()
            for res in self.resource_protocols.resources:
                if not res.name:
                    problems.append("resource_protocols: resource missing a name")
                    continue
                if res.name in seen_resources:
                    problems.append(
                        f"resource_protocols: resource {res.name!r} declared twice"
                    )
                seen_resources.add(res.name)
                if not res.acquire:
                    problems.append(
                        f"resource {res.name}: needs at least one acquire callable"
                    )
                if not res.release:
                    problems.append(
                        f"resource {res.name}: needs at least one release callable"
                    )
                for rel in res.release:
                    if not rel.param:
                        problems.append(
                            f"resource {res.name}: release {rel.callable} "
                            "must name the resource parameter"
                        )
            for mut in self.resource_protocols.guarded_mutators:
                if mut.resource not in seen_resources:
                    problems.append(
                        f"guarded mutator {mut.callable}: unknown resource "
                        f"{mut.resource!r}"
                    )
            if (
                self.resource_protocols.residue_handlers
                and not self.resource_protocols.residue_sensitive
            ):
                problems.append(
                    "resource_protocols: residue_handlers declared without "
                    "any residue_sensitive callables"
                )
        if self.volume_surface is not None:
            vol = self.volume_surface
            vkinds = vol.volume_kinds()
            for cat in vol.categories:
                if cat not in SINK_CATEGORIES:
                    problems.append(
                        f"volume_surface: unknown sink category {cat!r}"
                    )
            for dec in vol.declared:
                label = f"volume_surface declared {dec.taint}->{dec.sinks}"
                if dec.taint not in vkinds:
                    problems.append(
                        f"{label}: taint must be one of {sorted(vkinds)}"
                    )
                for sink_id in dec.sinks:
                    if sink_id not in ids:
                        problems.append(f"{label}: unknown sink id {sink_id!r}")
                if not dec.source:
                    problems.append(f"{label}: missing source expression")
                if not dec.granularity:
                    problems.append(f"{label}: missing granularity")
                if not dec.experiments:
                    problems.append(
                        f"{label}: needs at least one experiment reference"
                    )
        if self.durability_protocol is not None:
            dur = self.durability_protocol
            if dur.logged_mutators and not (dur.appends and dur.mutations):
                problems.append(
                    "durability_protocol: logged_mutators need both appends "
                    "and mutations declared"
                )
            if dur.commit_functions and not (
                dur.commit_appends and dur.flushes
            ):
                problems.append(
                    "durability_protocol: commit_functions need both "
                    "commit_appends and flushes declared"
                )
            for dec in dur.declared:
                if dec.rule not in DURABILITY_RULES:
                    problems.append(
                        f"durability_protocol declared entry: unknown rule "
                        f"{dec.rule!r}"
                    )
                if not dec.function or not dec.call:
                    problems.append(
                        "durability_protocol declared entry: needs both "
                        "function and call"
                    )
                if not dec.reason:
                    problems.append(
                        f"durability_protocol declared "
                        f"{dec.rule} at {dec.function}: needs a reason"
                    )
        seen_artifacts: Set[str] = set()
        for art in self.snapshot_artifacts:
            if art.name in seen_artifacts:
                problems.append(
                    f"snapshot artifact {art.name!r} declared twice"
                )
            seen_artifacts.add(art.name)
            if art.quadrant not in ARTIFACT_QUADRANTS:
                problems.append(
                    f"snapshot artifact {art.name}: unknown quadrant "
                    f"{art.quadrant!r}"
                )
            if art.artifact_class not in ARTIFACT_CLASSES:
                problems.append(
                    f"snapshot artifact {art.name}: unknown artifact class "
                    f"{art.artifact_class!r}"
                )
            for sink_id in art.sinks:
                if sink_id not in ids:
                    problems.append(
                        f"snapshot artifact {art.name}: unknown sink id "
                        f"{sink_id!r}"
                    )
        return problems


def _as_tuple(value, what: str) -> Tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise AnalysisError(f"{what} must be a list, got {type(value).__name__}")
    return tuple(str(v) for v in value)


def _load_raw(path: Path) -> dict:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise AnalysisError(f"cannot read leakage spec {path}: {exc}") from exc
    if path.suffix == ".toml":
        try:
            import tomllib  # Python 3.11+
        except ImportError as exc:
            raise AnalysisError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                "use the JSON form on older interpreters"
            ) from exc
        try:
            return tomllib.loads(data.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise AnalysisError(f"{path}: malformed TOML spec: {exc}") from exc
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AnalysisError(f"{path}: malformed JSON spec: {exc}") from exc


def load_spec(path) -> LeakageSpec:
    """Load and validate a leakage spec from ``path`` (JSON or TOML)."""
    path = Path(path)
    raw = _load_raw(path)
    if not isinstance(raw, dict):
        raise AnalysisError(f"{path}: spec root must be an object/table")
    package = raw.get("package")
    if not package or not isinstance(package, str):
        raise AnalysisError(f"{path}: spec must name the analyzed 'package'")

    sources = []
    for i, entry in enumerate(raw.get("sources", [])):
        try:
            sources.append(
                SourceSpec(
                    callable=entry["callable"],
                    taint=entry["taint"],
                    via=entry.get("via", "return"),
                    note=entry.get("note", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"{path}: sources[{i}] malformed: {exc}") from exc

    sinks = []
    for i, entry in enumerate(raw.get("sinks", [])):
        try:
            sinks.append(
                SinkSpec(
                    callable=entry["callable"],
                    sink=entry["sink"],
                    category=entry["category"],
                    params=_as_tuple(entry.get("params"), f"sinks[{i}].params"),
                    note=entry.get("note", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"{path}: sinks[{i}] malformed: {exc}") from exc

    documented = []
    for i, entry in enumerate(raw.get("documented_flows", [])):
        try:
            sink_ids = entry.get("sinks")
            if sink_ids is None:
                sink_ids = [entry["sink"]]
            for sink_id in sink_ids:
                documented.append(
                    DocumentedFlow(
                        taint=entry["taint"],
                        sink=sink_id,
                        experiments=_as_tuple(
                            entry.get("experiments"),
                            f"documented_flows[{i}].experiments",
                        ),
                        ref=entry.get("ref", ""),
                        note=entry.get("note", ""),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"{path}: documented_flows[{i}] malformed: {exc}"
            ) from exc

    snapshot_artifacts = []
    for i, entry in enumerate(raw.get("snapshot_artifacts", [])):
        try:
            snapshot_artifacts.append(
                SnapshotArtifactSpec(
                    name=entry["name"],
                    backend=entry.get("backend", "mysql"),
                    quadrant=entry["quadrant"],
                    artifact_class=entry["class"],
                    sinks=_as_tuple(
                        entry.get("sinks"), f"snapshot_artifacts[{i}].sinks"
                    ),
                    note=entry.get("note", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"{path}: snapshot_artifacts[{i}] malformed: {exc}"
            ) from exc

    crypto_policy = None
    raw_crypto = raw.get("crypto_policy")
    if raw_crypto is not None:
        if not isinstance(raw_crypto, dict):
            raise AnalysisError(f"{path}: crypto_policy must be an object/table")
        crypto_policy = CryptoPolicy(
            det_taints=_as_tuple(
                raw_crypto.get("det_taints"), "crypto_policy.det_taints"
            ),
            det_allowed_in=_as_tuple(
                raw_crypto.get("det_allowed_in"), "crypto_policy.det_allowed_in"
            ),
            key_display_allowed_in=_as_tuple(
                raw_crypto.get("key_display_allowed_in"),
                "crypto_policy.key_display_allowed_in",
            ),
            nonce_params=_as_tuple(
                raw_crypto.get("nonce_params"), "crypto_policy.nonce_params"
            ),
        )

    concurrency = None
    raw_conc = raw.get("concurrency")
    if raw_conc is not None:
        if not isinstance(raw_conc, dict):
            raise AnalysisError(f"{path}: concurrency must be an object/table")
        concurrency = ConcurrencyPolicy(
            entry_points=_as_tuple(
                raw_conc.get("entry_points"), "concurrency.entry_points"
            ),
            lock_guards=_as_tuple(
                raw_conc.get("lock_guards", ["lock", "_lock", "mutex"]),
                "concurrency.lock_guards",
            ),
            serial_entry_points=_as_tuple(
                raw_conc.get("serial_entry_points"),
                "concurrency.serial_entry_points",
            ),
        )

    resource_protocols = None
    raw_proto = raw.get("resource_protocols")
    if raw_proto is not None:
        if not isinstance(raw_proto, dict):
            raise AnalysisError(
                f"{path}: resource_protocols must be an object/table"
            )
        resources = []
        for i, entry in enumerate(raw_proto.get("resources", [])):
            try:
                releases = tuple(
                    ReleaseSpec(
                        callable=rel["callable"], param=rel.get("param", "")
                    )
                    for rel in entry.get("release", [])
                )
                resources.append(
                    ResourceSpec(
                        name=entry["name"],
                        acquire=_as_tuple(
                            entry.get("acquire"),
                            f"resource_protocols.resources[{i}].acquire",
                        ),
                        release=releases,
                        mark_dirty=_as_tuple(
                            entry.get("mark_dirty"),
                            f"resource_protocols.resources[{i}].mark_dirty",
                        ),
                        dirty_param=entry.get("dirty_param", ""),
                        leak_on_uncaught=bool(
                            entry.get("leak_on_uncaught", True)
                        ),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}: resource_protocols.resources[{i}] malformed: {exc}"
                ) from exc
        mutators = []
        for i, entry in enumerate(raw_proto.get("guarded_mutators", [])):
            try:
                mutators.append(
                    GuardedMutatorSpec(
                        callable=entry["callable"],
                        param=entry["param"],
                        resource=entry["resource"],
                    )
                )
            except (KeyError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}: resource_protocols.guarded_mutators[{i}] "
                    f"malformed: {exc}"
                ) from exc
        raw_handlers = raw_proto.get("residue_handlers", {})
        if not isinstance(raw_handlers, dict):
            raise AnalysisError(
                f"{path}: resource_protocols.residue_handlers must map "
                "caller qualnames to justification notes"
            )
        resource_protocols = ResourceProtocolsPolicy(
            resources=tuple(resources),
            guarded_mutators=tuple(mutators),
            residue_sensitive=_as_tuple(
                raw_proto.get("residue_sensitive"),
                "resource_protocols.residue_sensitive",
            ),
            residue_handlers=tuple(
                sorted((str(k), str(v)) for k, v in raw_handlers.items())
            ),
        )

    taints = dict(raw.get("taints", {}))

    volume_surface = None
    raw_volume = raw.get("volume_surface")
    if raw_volume is not None:
        if not isinstance(raw_volume, dict):
            raise AnalysisError(f"{path}: volume_surface must be an object/table")
        declared_volume = []
        for i, entry in enumerate(raw_volume.get("declared", [])):
            try:
                declared_volume.append(
                    VolumeDeclaration(
                        taint=entry["taint"],
                        sinks=_as_tuple(
                            entry["sinks"], f"volume_surface.declared[{i}].sinks"
                        ),
                        source=entry["source"],
                        granularity=entry["granularity"],
                        experiments=_as_tuple(
                            entry.get("experiments"),
                            f"volume_surface.declared[{i}].experiments",
                        ),
                        note=entry.get("note", ""),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}: volume_surface.declared[{i}] malformed: {exc}"
                ) from exc
        volume_surface = VolumeSurfacePolicy(
            length_taint=str(raw_volume.get("length_taint", "volume.length")),
            duration_taint=str(
                raw_volume.get("duration_taint", "volume.duration")
            ),
            duration_sources=_as_tuple(
                raw_volume.get("duration_sources"),
                "volume_surface.duration_sources",
            ),
            categories=_as_tuple(
                raw_volume.get(
                    "categories",
                    ["persistence", "telemetry", "diagnostic", "capture"],
                ),
                "volume_surface.categories",
            ),
            declared=tuple(declared_volume),
        )
        # The volume kinds join the taint vocabulary so documented flows,
        # sources, and the volume declarations all validate against them.
        taints.setdefault(
            volume_surface.length_taint,
            "size/cardinality of secret-derived data (len(), row counts)",
        )
        taints.setdefault(
            volume_surface.duration_taint,
            "wall-clock duration of secret-dependent work",
        )
        # Sink overlay: entries naming an existing sink callable widen its
        # observed params (union); entries with a sink id + category add a
        # new sink. Done at load time so the taint engine needs no
        # volume-specific sink handling.
        by_callable = {s.callable: idx for idx, s in enumerate(sinks)}
        for i, entry in enumerate(raw_volume.get("sinks", [])):
            try:
                cal = entry["callable"]
                extra = _as_tuple(
                    entry.get("params"), f"volume_surface.sinks[{i}].params"
                )
                if cal in by_callable:
                    idx = by_callable[cal]
                    prev = sinks[idx]
                    merged = (
                        tuple(dict.fromkeys(prev.params + extra))
                        if prev.params
                        else ()
                    )
                    sinks[idx] = SinkSpec(
                        callable=prev.callable,
                        sink=prev.sink,
                        category=prev.category,
                        params=merged,
                        note=prev.note,
                    )
                else:
                    sinks.append(
                        SinkSpec(
                            callable=cal,
                            sink=entry["sink"],
                            category=entry["category"],
                            params=extra,
                            note=entry.get("note", ""),
                        )
                    )
                    by_callable[cal] = len(sinks) - 1
            except (KeyError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}: volume_surface.sinks[{i}] malformed: {exc}"
                ) from exc

    durability_protocol = None
    raw_dur = raw.get("durability_protocol")
    if raw_dur is not None:
        if not isinstance(raw_dur, dict):
            raise AnalysisError(
                f"{path}: durability_protocol must be an object/table"
            )
        declared_dur = []
        for i, entry in enumerate(raw_dur.get("declared", [])):
            try:
                declared_dur.append(
                    DurabilityDeclaration(
                        rule=entry["rule"],
                        function=entry["function"],
                        call=entry["call"],
                        reason=entry["reason"],
                        experiments=_as_tuple(
                            entry.get("experiments"),
                            f"durability_protocol.declared[{i}].experiments",
                        ),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}: durability_protocol.declared[{i}] malformed: {exc}"
                ) from exc
        durability_protocol = DurabilityProtocolPolicy(
            appends=_as_tuple(
                raw_dur.get("appends"), "durability_protocol.appends"
            ),
            flushes=_as_tuple(
                raw_dur.get("flushes"), "durability_protocol.flushes"
            ),
            commit_appends=_as_tuple(
                raw_dur.get("commit_appends"),
                "durability_protocol.commit_appends",
            ),
            mutations=_as_tuple(
                raw_dur.get("mutations"), "durability_protocol.mutations"
            ),
            logged_mutators=_as_tuple(
                raw_dur.get("logged_mutators"),
                "durability_protocol.logged_mutators",
            ),
            commit_functions=_as_tuple(
                raw_dur.get("commit_functions"),
                "durability_protocol.commit_functions",
            ),
            declared=tuple(declared_dur),
        )

    spec = LeakageSpec(
        package=package,
        taints=taints,
        sources=sources,
        sinks=sinks,
        documented=documented,
        key_taints=_as_tuple(raw.get("key_taints"), "key_taints"),
        forbidden_categories=_as_tuple(
            raw.get("forbidden_categories", ["persistence"]), "forbidden_categories"
        ),
        release_points=_as_tuple(raw.get("release_points"), "release_points"),
        sanitizers=_as_tuple(raw.get("sanitizers"), "sanitizers"),
        artifacts=_as_tuple(raw.get("artifacts"), "artifacts"),
        snapshot_artifacts=snapshot_artifacts,
        crypto_policy=crypto_policy,
        concurrency=concurrency,
        resource_protocols=resource_protocols,
        volume_surface=volume_surface,
        durability_protocol=durability_protocol,
        path=str(path),
    )
    problems = spec.validate()
    if problems:
        raise AnalysisError(
            f"{path}: invalid leakage spec:\n  " + "\n  ".join(problems)
        )
    return spec
