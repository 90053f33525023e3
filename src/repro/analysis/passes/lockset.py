"""Lockset pass: Eraser-style per-container candidate-lockset intersection.

Savage et al.'s Eraser (PAPERS.md) discipline check, done statically: a
shared mutable container (module-level ``CACHE = {}``-style constant or a
class-body container attribute) that the spec's concurrent entry points
reach must be guarded by one common lock.

* the **held set** of an access is the locks lexically held at the site
  plus the function's *held-at-entry* set — the intersection, over every
  call edge reaching it from an entry role, of the caller's held set at
  the call site (a descending fixpoint over the facts call graph). A
  helper that is only ever called under ``self._lock`` is therefore
  correctly treated as guarded, where a lexical check would flag it;
* the **candidate lockset** of a shared container is the intersection of
  the held sets of all may-happen-in-parallel accesses (reads *and*
  writes). Empty intersection + at least one parallel write = a race:
  no single lock protects the container;
* **may-happen-in-parallel pruning**: accesses reachable only from roles
  the spec's ``concurrency.serial_entry_points`` declares serialized by
  the scheduler topology never overlap anything and are excluded — both
  as race candidates and from the intersection (a maintenance path that
  writes without the lock must not empty the candidate set of the
  worker paths it can never race with).

Static approximation of Eraser's dynamic per-object state machine: lock
identity is per declaring class (not per instance), and there is no
initialization-phase exemption — module/class-body containers are shared
from import time. The pass runs when the spec's ``concurrency`` section
names entry points.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..facts import ensure_facts
from .base import LintPass, PassContext, RuleMeta, Violation


def _role_functions(ctx: PassContext, names) -> Set[str]:
    """Entry-point methods/functions named by a list of role qualnames.

    Only *public* methods of an entry class are roots: the scheduler
    dispatches the public surface bare, while ``_``-prefixed helpers are
    reached through call edges — making them roots too would zero their
    held-at-entry set and destroy the interprocedural propagation the
    pass exists for.
    """
    targets = {ctx.resolver.canonical(name) for name in names}
    entries: Set[str] = set()
    for cls_qual, info in ctx.index.classes.items():
        mro = {cls_qual, *ctx.resolver.mro(cls_qual)}
        if mro & targets:
            entries.update(
                qual
                for name, qual in info.methods.items()
                if not name.startswith("_")
            )
    entries.update(q for q in targets if q in ctx.index.functions)
    return entries


def _reach(callees: Dict[str, Set[str]], roots: Set[str]) -> Set[str]:
    seen = set(roots)
    stack = list(roots)
    while stack:
        fn = stack.pop()
        for nxt in callees.get(fn, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _held_at_entry(
    ctx: PassContext,
    facts,
    roots: Set[str],
    relevant: Set[str],
) -> Dict[str, FrozenSet[str]]:
    """Descending intersection: locks held on *every* path to a function.

    Roots start at the empty set (an entry point is called bare); every
    call edge contributes ``HeldAtEntry(caller) | lexically-held-at-site``
    and a callee's value is the intersection over its incoming edges.
    """
    held: Dict[str, FrozenSet[str]] = {root: frozenset() for root in roots}
    work = [root for root in roots if root in relevant]
    while work:
        caller = work.pop()
        base = held[caller]
        fact = facts.get(caller)
        if fact is None:
            continue
        for site in fact.call_sites:
            callee = site.callee
            if callee not in relevant or callee not in ctx.index.functions:
                continue
            incoming = base | frozenset(site.held)
            current = held.get(callee)
            updated = incoming if current is None else (current & incoming)
            if updated != current:
                held[callee] = updated
                work.append(callee)
    return held


def lockset_lint(ctx: PassContext) -> List[Violation]:
    policy = ctx.spec.concurrency
    if policy is None or not policy.entry_points:
        return []
    facts = ensure_facts(ctx)

    callees: Dict[str, Set[str]] = {}
    for qual, fact in facts.items():
        callees[qual] = {
            site.callee
            for site in fact.call_sites
            if site.callee in ctx.index.functions
        }

    parallel_roots = _role_functions(ctx, policy.entry_points)
    serial_roots = _role_functions(ctx, policy.serial_entry_points)
    parallel_reach = _reach(callees, parallel_roots)
    serial_reach = _reach(callees, serial_roots)
    relevant = parallel_reach | serial_reach
    entry_held = _held_at_entry(ctx, facts, parallel_roots | serial_roots, relevant)

    # container -> [(fn, kind, line, full held set)] for parallel accesses.
    accesses: Dict[str, List] = {}
    for fn_qual in sorted(parallel_reach):
        fact = facts.get(fn_qual)
        if fact is None:
            continue
        base = entry_held.get(fn_qual, frozenset())
        for acc in fact.accesses:
            full = base | frozenset(acc.held)
            accesses.setdefault(acc.container, []).append(
                (fn_qual, acc.kind, acc.line, full)
            )

    violations: List[Violation] = []
    for container in sorted(accesses):
        sites = accesses[container]
        writes = [site for site in sites if site[1] == "write"]
        if not writes:
            continue  # read-only from parallel paths: no race
        candidate: Optional[FrozenSet[str]] = None
        for _, _, _, held in sites:
            candidate = held if candidate is None else (candidate & held)
        if candidate:
            continue  # one lock consistently guards every parallel access
        fn_qual, _, line, _ = min(writes, key=lambda s: (s[0], s[2]))
        described = ", ".join(
            f"{fn}:{ln} ({kind}"
            + (f" under {'+'.join(sorted(held))}" if held else " unlocked")
            + ")"
            for fn, kind, ln, held in sorted(sites)[:4]
        )
        violations.append(
            Violation(
                rule="lockset-race",
                message=(
                    f"shared container {container} has no candidate lock: "
                    "may-happen-in-parallel accesses "
                    f"[{described}{', ...' if len(sites) > 4 else ''}] hold "
                    "no common lock and at least one writes — two sessions "
                    "can interleave and corrupt or leak cross-session state"
                ),
                function=fn_qual,
                line=line,
                key=container,
            )
        )
    return violations


LOCKSET_PASS = LintPass(
    name="lockset",
    rules=(
        RuleMeta(
            id="lockset-race",
            name="LocksetRace",
            short_description=(
                "Shared container whose may-happen-in-parallel accesses "
                "hold no common lock (and at least one writes)"
            ),
            spec_section="concurrency (entry_points, serial_entry_points)",
            experiments=("E7", "E13"),
            example=(
                "def handle_a(self, k, v):\n"
                "    with lock_a: REGISTRY[k] = v\n"
                "def handle_b(self, k):\n"
                "    with lock_b: REGISTRY.pop(k)   # lock_a & lock_b = {}"
            ),
        ),
    ),
    run=lockset_lint,
)
