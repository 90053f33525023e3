"""Analysis driver: cold, warm, and incremental runs over one package.

:func:`run_analysis` is the single entry point behind both the library API
and the CLI. Without a cache directory it is a plain cold run (parse →
resolve → taint fixpoint → lint passes). With one, it layers:

1. **Full-tree hit**: if no module and neither the spec nor the analyzer
   changed, the complete report is reconstructed from ``tree.json`` —
   no parsing at all.
2. **Incremental run**: modules whose import-closure key changed are
   *dirty*; everything else seeds the engine from cached per-function
   contributions and only the dirty cone goes through the worklist.

Incremental soundness: seeding is a monotone over-approximation only if
nothing was *retracted*. After the warm fixpoint the driver compares each
dirty function's fresh contribution against its cached one; if any
summary-feeding fact disappeared (a return kind, a call edge, an attribute
write...), cached facts derived from it elsewhere may now be stale, and the
driver silently redoes the run cold. Additive edits — the common case —
stay on the fast path; deletions pay full price but stay *correct*. A
removed module triggers the same fallback for the same reason.

Determinism: flows/witnesses are built from merged contributions with
min-key tie-breaking (see :mod:`.taint`), so cold, warm and incremental
runs over the same tree produce byte-identical findings. The bench and a
test both assert this.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..errors import AnalysisError
from .cache import (
    DEFAULT_CACHE_DIRNAME,
    LintCache,
    closure_key,
    file_digest,
    tree_key,
)
from .facts import FunctionFacts, extract_all_facts, facts_needed
from .fingerprint import apply_baseline, attach_fingerprints, load_baseline
from .modindex import PackageIndex, module_files
from .passes import (
    PassContext,
    default_registry,
    stale_documented_entries,
    stale_volume_declarations,
)
from .report import AnalysisReport, build_report
from .resolve import Resolver
from .spec import LeakageSpec, load_spec
from .taint import Contribution, TaintEngine

#: Analyzer semantic version: part of every cache key and of ``--version``.
#: 3.0.0: typestate (resource-protocol) and lockset passes; per-function
#: protocol/lockset facts cached next to taint contributions.
#: 4.0.0: size-provenance (volume) taint domain + durability-ordering
#: pass; volume kinds ride the cached contributions, so the bump
#: invalidates every v3 cache entry.
#: 5.0.0: the lexical shared-state pass is gone and the lockset pass runs
#: whenever ``concurrency.entry_points`` is set, so facts extracted for a
#: spec without the old ``lockset`` knob now carry container accesses.
ANALYZER_VERSION = "5.0.0"


def _module_dep_closures(
    index: PackageIndex, hashes: Dict[str, str]
) -> Dict[str, List[Tuple[str, str]]]:
    """modname -> sorted (dep modname, dep hash) over its import closure.

    Import targets resolve to the *longest module prefix* of the dotted
    name; ``__init__`` re-exports need no special casing because the
    ``__init__`` module itself imports the defining module, so the closure
    picks it up transitively. Cycles are handled by the reachability walk.
    """
    direct: Dict[str, Set[str]] = {}
    for mod_name, module in index.modules.items():
        deps: Set[str] = set()
        for dotted in module.imports.values():
            candidate = dotted
            while candidate:
                if candidate in index.modules:
                    deps.add(candidate)
                    break
                candidate = candidate.rpartition(".")[0]
        deps.discard(mod_name)
        direct[mod_name] = deps
    closures: Dict[str, List[Tuple[str, str]]] = {}
    for mod_name in index.modules:
        seen = {mod_name}
        stack = [mod_name]
        while stack:
            current = stack.pop()
            for dep in direct.get(current, ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        closures[mod_name] = sorted((m, hashes[m]) for m in seen)
    return closures


def _attach_locations(
    index: PackageIndex, root: Path, spec: LeakageSpec, violations
) -> None:
    """Fill each violation's repo-relative module path (posix form)."""
    spec_name = Path(spec.path).name if spec.path else "leakage_spec.json"
    for violation in violations:
        if violation.path:
            continue
        path: Optional[Path] = None
        if violation.function:
            prefix = violation.function
            while prefix and prefix not in index.modules:
                prefix = prefix.rpartition(".")[0]
            if prefix:
                path = index.modules[prefix].path
        if path is None:
            violation.path = spec_name
            continue
        try:
            violation.path = path.resolve().relative_to(root).as_posix()
        except ValueError:
            violation.path = path.as_posix()


def _run_passes(
    spec: LeakageSpec,
    index: PackageIndex,
    resolver: Resolver,
    result,
    facts: Optional[Dict[str, FunctionFacts]] = None,
) -> Tuple[List, List[str]]:
    ctx = PassContext(
        spec=spec, index=index, resolver=resolver, result=result, facts=facts
    )
    violations = default_registry().run_all(ctx)
    stale = stale_documented_entries(spec, result)
    stale.extend(stale_volume_declarations(spec, result))
    return violations, stale


def run_analysis(
    package_dir,
    package: str,
    spec_path,
    *,
    cache_dir=None,
    jobs: int = 1,
    baseline=None,
) -> AnalysisReport:
    """Analyze ``package_dir`` against the leakage spec at ``spec_path``.

    ``cache_dir`` enables the incremental cache (``None`` = always cold —
    the library/test default). ``jobs`` controls parse parallelism on cold
    paths (1 = serial, 0 = auto, N = pool of N). ``baseline`` suppresses
    previously-recorded violation fingerprints.
    """
    spec = load_spec(spec_path)
    cache = LintCache(cache_dir) if cache_dir is not None else None
    spec_hash = file_digest(spec_path)
    files = module_files(package_dir, package)
    if not files:
        raise AnalysisError(f"no Python modules found under {package_dir}")
    hashes = {name: file_digest(path) for name, path, _is_pkg in files}
    root = Path(spec.path).resolve().parent if spec.path else Path(
        package_dir
    ).resolve().parent

    full_key = tree_key(ANALYZER_VERSION, spec_hash, hashes.items())
    if cache is not None:
        payload = cache.load_tree(full_key)
        if payload is not None:
            report = AnalysisReport.from_payload(spec, payload)
            report.cache_stats = {
                "mode": "warm-full",
                "modules_total": report.modules_analyzed,
                "modules_dirty": 0,
                "functions_total": report.functions_analyzed,
                "functions_reanalyzed": 0,
                "facts_reextracted": 0,
            }
            if baseline is not None:
                apply_baseline(report.violations, load_baseline(baseline))
            return report

    index = PackageIndex.build(package_dir, package, jobs=jobs)
    resolver = Resolver(index)
    closures = _module_dep_closures(index, hashes)
    module_keys = {
        name: closure_key(ANALYZER_VERSION, spec_hash, closure)
        for name, closure in closures.items()
    }

    cached_modules: Dict[str, Dict] = (
        cache.load_modules(spec_hash) if cache is not None else {}
    )
    removed = set(cached_modules) - set(index.modules)
    dirty = {
        name
        for name in index.modules
        if cached_modules.get(name, {}).get("key") != module_keys[name]
    }
    clean = set(index.modules) - dirty

    mode = "cold"
    result = None
    engine = None
    if cached_modules and clean and not removed:
        # Incremental attempt: seed the engine with clean modules' cached
        # contributions, fixpoint only over the dirty cone.
        engine = TaintEngine(index, resolver, spec)
        seeds: Dict[str, Contribution] = {}
        for name in clean:
            seeds.update(cached_modules[name].get("functions", {}))
        engine.seed_contributions(seeds)
        initial = [
            qual
            for qual, fn in index.functions.items()
            if fn.module in dirty
        ]
        result = engine.run(initial=initial)
        retracted = False
        for name in dirty:
            entry = cached_modules.get(name)
            if entry is None:
                continue  # brand-new module: nothing cached to retract
            for qual, old in entry.get("functions", {}).items():
                fresh = engine.contribs.get(qual) or Contribution()
                if qual not in index.functions or fresh.retracts(old):
                    retracted = True
                    break
            if retracted:
                break
        if retracted:
            mode = "warm-fallback"
            result = None
            engine = None
        else:
            mode = "warm-incremental"

    if result is None:
        engine = TaintEngine(index, resolver, spec)
        result = engine.run()

    facts: Optional[Dict[str, FunctionFacts]] = None
    facts_reextracted = 0
    if facts_needed(spec):
        if mode == "warm-incremental":
            # Clean modules keep their cached per-function facts: the
            # summary fixpoint only flows along the import direction, so a
            # module whose closure key matched cannot see changed facts.
            seeded: Dict[str, FunctionFacts] = {}
            for name in clean:
                seeded.update(cached_modules[name].get("facts", {}))
            dirty_quals = [
                qual
                for qual, fn in index.functions.items()
                # Missing seeds guard against entries written by an older
                # run that never extracted facts for this function.
                if fn.module in dirty or qual not in seeded
            ]
            facts, facts_reextracted = extract_all_facts(
                index, resolver, spec, seeded=seeded, dirty_quals=dirty_quals
            )
        else:
            facts, facts_reextracted = extract_all_facts(
                index, resolver, spec
            )

    violations, stale = _run_passes(spec, index, resolver, result, facts)
    _attach_locations(index, root, spec, violations)
    attach_fingerprints(violations)
    report = build_report(
        spec,
        result,
        violations,
        stale,
        modules_analyzed=len(index.modules),
        functions_analyzed=len(index.functions),
    )
    report.cache_stats = {
        "mode": mode,
        "modules_total": len(index.modules),
        "modules_dirty": len(dirty) if cached_modules else len(index.modules),
        "functions_total": len(index.functions),
        "functions_reanalyzed": result.functions_processed,
        "facts_reextracted": facts_reextracted,
    }

    if cache is not None:
        cache.store_tree(full_key, report.to_payload())
        by_module: Dict[str, Dict] = {
            name: {"key": module_keys[name], "functions": {}, "facts": {}}
            for name in index.modules
        }
        for qual, contrib in engine.contribs.items():
            fn = index.functions.get(qual)
            if fn is not None:
                by_module[fn.module]["functions"][qual] = contrib
        if facts is not None:
            for qual, fact in facts.items():
                fn = index.functions.get(qual)
                if fn is not None:
                    by_module[fn.module]["facts"][qual] = fact
        cache.store_modules(spec_hash, by_module)

    if baseline is not None:
        apply_baseline(report.violations, load_baseline(baseline))
    return report


__all__ = [
    "ANALYZER_VERSION",
    "DEFAULT_CACHE_DIRNAME",
    "run_analysis",
]
