"""Durability-ordering pass: static verification of the WAL protocol.

ROADMAP item 9 rewrites the WAL (encryption, padding, batching) on top of
the ordering discipline PR 9 established; this pass turns that discipline
into a gate the rewrite inherits, the same way the paged engine inherited
the pin/lockset gate. Against a ``durability_protocol`` spec section it
proves three properties over the v3 per-function CFGs (exception edges
included):

``durability-unlogged-mutation``
    Inside every declared ``logged_mutators`` scope function, no declared
    mutation call may sit on a path from entry to normal exit that never
    executes a declared WAL append — a mutation with no undo/redo/CLR
    frame anywhere around it is unrecoverable. (Both orders are legal:
    CLR-before-mutate in rollback, mutate-then-log in the forward path —
    the buffer pool's WAL rule covers the write-back ordering.)

``durability-unflushed-commit``
    Inside every declared ``commit_functions`` scope function, a declared
    commit-record append must be followed by a declared ``flush`` on every
    path to normal exit — returning (acking) with the commit record still
    staged breaks committed==durable.

``durability-append-after-flush``
    No declared append/mutation may execute after the flush point on any
    path through a commit function: a frame staged after the group flush
    rides a later commit's durability, silently widening the ack boundary.

Callables are matched *by name* (last qualname component) at call sites
inside the declared scope functions only — the tree/page receivers are
tuple-unpacked locals no type inference can pin down, and the explicit
scoping keeps the generic names precise. Findings can be waived per
(rule, function, call) under ``declared`` with a written justification;
like the other protocol rules they are reported deterministically.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

from ..cfg import CFG, build_cfg
from .base import LintPass, PassContext, RuleMeta, Violation


def _last(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _ordered_calls(stmt: ast.AST) -> List[Tuple[int, str]]:
    """(line, callee name) for calls this CFG node itself executes.

    Compound headers store their full AST, but nested bodies have their
    own nodes — so only the header expressions are walked. Calls are
    ordered by source position, an adequate stand-in for evaluation order
    at the statement granularity the protocol functions use.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        exprs: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        exprs = []
    elif isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        exprs = []
    elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
        exprs = [stmt.subject]
    else:
        exprs = [stmt]
    calls: List[Tuple[int, int, str]] = []
    for expr in exprs:
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute):
                calls.append((sub.lineno, sub.col_offset, sub.func.attr))
            elif isinstance(sub.func, ast.Name):
                calls.append((sub.lineno, sub.col_offset, sub.func.id))
    calls.sort()
    return [(line, name) for line, _col, name in calls]


class _ScopeCFG:
    """A scope function's CFG plus per-node ordered call names."""

    def __init__(self, fn_node: ast.AST) -> None:
        self.cfg = build_cfg(fn_node)
        self.calls: Dict[int, List[Tuple[int, str]]] = {
            node: _ordered_calls(stmt)
            for node, stmt in self.cfg.stmts.items()
        }

    def node_calls(self, node: int) -> List[Tuple[int, str]]:
        return self.calls.get(node, [])

    def preds(self) -> Dict[int, Set[int]]:
        preds: Dict[int, Set[int]] = {n: set() for n in self.cfg.node_ids()}
        for src, dsts in self.cfg.succ.items():
            for dst in dsts:
                preds[dst].add(src)
        for src, dsts in self.cfg.exc.items():
            for dst in dsts:
                preds[dst].add(src)
        return preds


def _check_unlogged_mutation(
    qual: str, scope: _ScopeCFG, appends: Set[str], mutations: Set[str]
) -> List[Violation]:
    """Mutations with an append-free path around them (may-analysis both ways)."""
    cfg = scope.cfg

    # Forward: does an append-free path from ENTRY reach this node's start?
    na_in = {n: False for n in cfg.node_ids()}
    na_in[CFG.ENTRY] = True
    wl = deque([CFG.ENTRY])
    while wl:
        n = wl.popleft()
        if not na_in[n]:
            continue
        out = not any(name in appends for _, name in scope.node_calls(n))
        for s in cfg.succ.get(n, ()):
            if out and not na_in[s]:
                na_in[s] = True
                wl.append(s)
        # An exception can fire before the node's appends ran, so the
        # incoming (still append-free) state flows to the handlers.
        for s in cfg.exc.get(n, ()):
            if not na_in[s]:
                na_in[s] = True
                wl.append(s)

    # Backward: g[n] = an append-free path from this node's start reaches
    # normal EXIT.
    g = {n: False for n in cfg.node_ids()}
    g[CFG.EXIT] = True
    preds = scope.preds()
    wl = deque(preds[CFG.EXIT])
    seen = set(wl)
    while wl:
        n = wl.popleft()
        seen.discard(n)
        no_append = not any(
            name in appends for _, name in scope.node_calls(n)
        )
        new = (
            no_append and any(g[s] for s in cfg.succ.get(n, ()))
        ) or any(g[h] for h in cfg.exc.get(n, ()))
        if new and not g[n]:
            g[n] = True
            for p in preds[n]:
                if p not in seen:
                    seen.add(p)
                    wl.append(p)

    violations: List[Violation] = []
    for n in sorted(cfg.stmts):
        calls = scope.node_calls(n)
        state = na_in[n]
        for i, (line, name) in enumerate(calls):
            if name in mutations and state:
                suffix_clear = not any(
                    nm in appends for _, nm in calls[i + 1 :]
                )
                escapes = (
                    suffix_clear
                    and any(g[s] for s in cfg.succ.get(n, ()))
                ) or any(g[h] for h in cfg.exc.get(n, ()))
                if escapes:
                    violations.append(
                        Violation(
                            rule="durability-unlogged-mutation",
                            message=(
                                f"{qual}:{line} mutates via {name}() on a "
                                "path that never writes a WAL append — the "
                                "change is unrecoverable after a crash"
                            ),
                            function=qual,
                            line=line,
                            key=name,
                        )
                    )
            if name in appends:
                state = False
    return violations


def _check_unflushed_commit(
    qual: str,
    scope: _ScopeCFG,
    commit_appends: Set[str],
    flushes: Set[str],
) -> List[Violation]:
    """Commit-record appends that may reach normal exit unflushed."""
    cfg = scope.cfg
    empty: FrozenSet[Tuple[int, str]] = frozenset()
    pend_in: Dict[int, FrozenSet[Tuple[int, str]]] = {
        n: empty for n in cfg.node_ids()
    }
    # Every node seeds the worklist: gen happens at commit-append call
    # sites regardless of the incoming state.
    wl = deque(cfg.node_ids())
    while wl:
        n = wl.popleft()
        state = pend_in[n]
        exc_acc = state
        for line, name in scope.node_calls(n):
            if name in commit_appends:
                state = state | {(line, name)}
            elif name in flushes:
                state = empty
            exc_acc = exc_acc | state
        for s in cfg.succ.get(n, ()):
            if not state <= pend_in[s]:
                pend_in[s] = pend_in[s] | state
                wl.append(s)
        for h in cfg.exc.get(n, ()):
            if not exc_acc <= pend_in[h]:
                pend_in[h] = pend_in[h] | exc_acc
                wl.append(h)
    return [
        Violation(
            rule="durability-unflushed-commit",
            message=(
                f"{qual}:{line} appends the commit record via {name}() but "
                "a path reaches return without flushing it — the ack is "
                "not durable (committed==durable broken)"
            ),
            function=qual,
            line=line,
            key=name,
        )
        for line, name in sorted(pend_in[CFG.EXIT])
    ]


def _check_append_after_flush(
    qual: str,
    scope: _ScopeCFG,
    appends: Set[str],
    flushes: Set[str],
) -> List[Violation]:
    """Appends/mutations that may execute after the flush point."""
    cfg = scope.cfg
    fl_in = {n: False for n in cfg.node_ids()}
    # Every node seeds the worklist: a flush gens the state regardless of
    # the incoming value.
    wl = deque(cfg.node_ids())
    while wl:
        n = wl.popleft()
        state = fl_in[n]
        for _line, name in scope.node_calls(n):
            if name in flushes:
                state = True
        for s in cfg.succ.get(n, ()):
            if state and not fl_in[s]:
                fl_in[s] = True
                wl.append(s)
        for h in cfg.exc.get(n, ()):
            if state and not fl_in[h]:
                fl_in[h] = True
                wl.append(h)
    violations: List[Violation] = []
    for n in sorted(cfg.stmts):
        state = fl_in[n]
        for line, name in scope.node_calls(n):
            if name in appends and state:
                violations.append(
                    Violation(
                        rule="durability-append-after-flush",
                        message=(
                            f"{qual}:{line} stages {name}() after the "
                            "flush point — the frame rides a later "
                            "commit's durability and widens the ack "
                            "boundary"
                        ),
                        function=qual,
                        line=line,
                        key=name,
                    )
                )
            if name in flushes:
                state = True
    return violations


def durability_lint(ctx: PassContext) -> List[Violation]:
    policy = ctx.spec.durability_protocol
    if policy is None:
        return []
    appends = {_last(q) for q in policy.appends}
    flushes = {_last(q) for q in policy.flushes}
    commit_appends = {_last(q) for q in policy.commit_appends}
    mutations = {_last(q) for q in policy.mutations}
    declared = {(d.rule, d.function, d.call) for d in policy.declared}

    def scope_fns(quals: Tuple[str, ...]):
        for name in sorted(quals):
            qual = ctx.resolver.canonical(name)
            fn = ctx.index.functions.get(qual)
            if fn is not None:
                yield qual, _ScopeCFG(fn.node)

    violations: List[Violation] = []
    for qual, scope in scope_fns(policy.logged_mutators):
        violations.extend(
            _check_unlogged_mutation(qual, scope, appends, mutations)
        )
    # CLR/undo appends count for the ordering checks too: staging any
    # frame after the group flush widens the ack boundary.
    ordering_appends = appends | commit_appends | mutations
    for qual, scope in scope_fns(policy.commit_functions):
        violations.extend(
            _check_unflushed_commit(qual, scope, commit_appends, flushes)
        )
        violations.extend(
            _check_append_after_flush(
                qual, scope, ordering_appends, flushes
            )
        )
    return [
        v
        for v in violations
        if (v.rule, v.function, v.key) not in declared
    ]


DURABILITY_PASS = LintPass(
    name="durability-ordering",
    rules=(
        RuleMeta(
            id="durability-unlogged-mutation",
            name="DurabilityUnloggedMutation",
            short_description=(
                "A declared mutation on an append-free path through a "
                "WAL-disciplined function (unrecoverable after a crash)"
            ),
            spec_section="durability_protocol",
            experiments=("E15",),
            example=(
                "def insert(self, key, row):\n"
                "    if key in self.index:\n"
                "        self.tree.insert(key, row)   # mutated...\n"
                "        return                        # ...never logged\n"
                "    self.wal.append_redo(key, row)\n"
                "    self.tree.insert(key, row)\n"
            ),
        ),
        RuleMeta(
            id="durability-unflushed-commit",
            name="DurabilityUnflushedCommit",
            short_description=(
                "A commit-record append that may reach return without a "
                "flush (committed==durable broken)"
            ),
            spec_section="durability_protocol",
            experiments=("E15",),
            example=(
                "def commit(self, txn):\n"
                "    self.wal.append_commit(txn.id)\n"
                "    if txn.is_write:\n"
                "        self.wal.flush()\n"
                "    # read-only path acks with the record still staged\n"
            ),
        ),
        RuleMeta(
            id="durability-append-after-flush",
            name="DurabilityAppendAfterFlush",
            short_description=(
                "A WAL append or mutation staged after the flush point "
                "(rides a later commit's durability)"
            ),
            spec_section="durability_protocol",
            experiments=("E15",),
            example=(
                "def commit(self, txn):\n"
                "    self.wal.append_commit(txn.id)\n"
                "    self.wal.flush()\n"
                "    self.wal.append_redo(txn.tail)  # after the barrier\n"
            ),
        ),
    ),
    run=durability_lint,
)
