"""Per-function protocol/lockset fact extraction (repro-lint v3).

This module computes one :class:`FunctionFacts` record per function — the
cacheable unit the protocol and lockset passes judge globally:

* a **call scan** (every function): resolved call sites with the lock set
  lexically held at each, shared-container accesses (reads *and* writes)
  with their held locks, and whether the body contains a ``raise``;
* a **protocol dataflow** (functions whose callees touch the spec's
  ``resource_protocols`` vocabulary): an abstract interpretation over the
  :mod:`.cfg` graph tracking acquire/release obligations along normal and
  exceptional paths.

Facts are *local*: they mention global state only through callee summary
fields (``acquires_by_return`` / ``releases_params``), which follow import
direction — so a record stays valid exactly as long as the function's
import-closure content hash does, the same key the incremental cache
already uses for taint Contributions. Conditional leaks name their
trigger callees instead of resolving may-raise locally, so the global
may-raise fixpoint happens at judgment time (:mod:`.passes.protocol`)
without invalidating cached facts.

Soundness limits (DESIGN §11): unresolved callees (stdlib) are assumed
non-raising; resources stored into attributes/containers or passed to
unresolved calls *escape* (their obligation is no longer tracked);
comprehension bodies and nested functions are opaque; multiple live
obligations from one acquire site merge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cfg import CFG, build_cfg
from .modindex import FunctionInfo, ModuleInfo, PackageIndex
from .resolve import Resolver, _dotted_name
from .spec import LeakageSpec, ResourceProtocolsPolicy

__all__ = [
    "AccessRecord",
    "CallSiteRecord",
    "DirtyRecord",
    "FreeRecord",
    "FunctionFacts",
    "LeakRecord",
    "MutatorRecord",
    "ensure_facts",
    "extract_all_facts",
    "facts_needed",
]

#: Rounds of the summary fixpoint. Acquire/release wrappers nest shallowly
#: (``get -> _descend -> _fetch`` is depth 3); unconverged residue after
#: this many rounds only costs precision, never soundness of the cache.
_MAX_ROUNDS = 5


# ---------------------------------------------------------------------------
# shared-container helpers (the lockset access extractor)

#: Call-method names that mutate the receiver container in place.
_WRITE_METHODS = {
    "append", "appendleft", "add", "extend", "extendleft", "insert",
    "update", "setdefault", "push", "pop", "popitem", "popleft", "clear",
    "remove", "discard",
}

_CONTAINER_CALLS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


def _is_container_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = node.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        return name in _CONTAINER_CALLS
    return False


def _shared_containers(index: PackageIndex) -> Dict[Tuple[str, str], str]:
    """(module, name) / (class leaf scope) -> container qualname.

    Module-level mutable containers, plus class-body ``Assign`` containers
    (``class Server: sessions = {}``), which are shared across instances.
    """
    containers: Dict[Tuple[str, str], str] = {}
    for mod_name, module in index.modules.items():
        for name, value in module.constants.items():
            if _is_container_literal(value):
                containers[(mod_name, name)] = f"{mod_name}.{name}"
    for cls_qual, info in index.classes.items():
        for child in info.node.body:
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and _is_container_literal(child.value)
            ):
                containers[(cls_qual, child.targets[0].id)] = (
                    f"{cls_qual}.{child.targets[0].id}"
                )
    return containers


def _local_names(fn_node: ast.AST) -> Set[str]:
    """Names bound locally (params + assignments): these shadow globals."""
    names: Set[str] = set()
    args = fn_node.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _mentions_guard(node: ast.expr, guards: Tuple[str, ...]) -> bool:
    for child in ast.walk(node):
        ident: Optional[str] = None
        if isinstance(child, ast.Name):
            ident = child.id
        elif isinstance(child, ast.Attribute):
            ident = child.attr
        if ident is not None and any(g in ident for g in guards):
            return True
    return False


# ---------------------------------------------------------------------------
# fact records


@dataclass(frozen=True, order=True)
class LeakRecord:
    """A path on which an acquired resource is still live at an exit."""

    resource: str
    acquire_line: int
    #: "normal" — falls off the function end; "caught" — an exception was
    #: caught and the handler path exits without releasing; "uncaught" —
    #: the exception propagates out of the function.
    kind: str
    #: Line of the call whose exception creates the path (0 when the leak
    #: is unconditional — e.g. a plain branch that skips the release).
    trigger_line: int = 0
    #: Candidate callees of the trigger call. The leak is real only if at
    #: least one of them may raise — judged globally at pass time.
    trigger_callees: Tuple[str, ...] = ()


@dataclass(frozen=True, order=True)
class DirtyRecord:
    """A resource mutated through a tracked view but released clean."""

    resource: str
    acquire_line: int
    release_line: int


@dataclass(frozen=True, order=True)
class MutatorRecord:
    """A guarded-mutator call whose resource argument is not live."""

    callee: str
    line: int
    resource: str


@dataclass(frozen=True, order=True)
class FreeRecord:
    """A call into a residue-sensitive callable (e.g. ``free_page``)."""

    callee: str
    line: int


@dataclass(frozen=True, order=True)
class AccessRecord:
    """One shared-container access with the lexically held locks."""

    container: str
    kind: str  # "read" | "write"
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True, order=True)
class CallSiteRecord:
    """One resolved call-site candidate with the lexically held locks."""

    callee: str
    held: Tuple[str, ...]


@dataclass(frozen=True)
class FunctionFacts:
    """Everything the protocol/lockset passes need about one function."""

    raises_locally: bool = False
    call_sites: Tuple[CallSiteRecord, ...] = ()
    accesses: Tuple[AccessRecord, ...] = ()
    #: Resource kinds this function returns still-acquired (ownership
    #: transfers to the caller — e.g. ``PagedBTree._descend``).
    acquires_by_return: Tuple[str, ...] = ()
    #: (param name, resource) pairs this function releases on behalf of
    #: its caller (e.g. an ``_unpin_all`` helper taking a frame).
    releases_params: Tuple[Tuple[str, str], ...] = ()
    leaks: Tuple[LeakRecord, ...] = ()
    dirty: Tuple[DirtyRecord, ...] = ()
    mutators: Tuple[MutatorRecord, ...] = ()
    free_calls: Tuple[FreeRecord, ...] = ()


def facts_needed(spec: LeakageSpec) -> bool:
    """Whether this spec activates any facts-consuming pass."""
    if getattr(spec, "resource_protocols", None) is not None:
        return True
    conc = spec.concurrency
    return bool(conc is not None and conc.entry_points)


# ---------------------------------------------------------------------------
# protocol configuration (canonicalized spec view)


class ProtocolConfig:
    """The ``resource_protocols`` spec section, keyed by canonical qualname."""

    def __init__(self, policy: ResourceProtocolsPolicy, resolver: Resolver):
        self.policy = policy
        self.resource_by_name = {r.name: r for r in policy.resources}
        self.acquire_map: Dict[str, str] = {}
        #: qual -> (resource name, resource-param name, dirty-param name)
        self.release_map: Dict[str, Tuple[str, str, str]] = {}
        self.mark_dirty_map: Dict[str, str] = {}
        for res in policy.resources:
            for qual in res.acquire:
                self.acquire_map[resolver.canonical(qual)] = res.name
            for rel in res.release:
                self.release_map[resolver.canonical(rel.callable)] = (
                    res.name, rel.param, res.dirty_param
                )
            for qual in res.mark_dirty:
                self.mark_dirty_map[resolver.canonical(qual)] = res.name
        self.mutator_map = {
            resolver.canonical(m.callable): m for m in policy.guarded_mutators
        }
        self.free_set = {
            resolver.canonical(q) for q in policy.residue_sensitive
        }
        #: Calls excluded from the exception-trigger candidates: a release
        #: call raising would otherwise flag every correctly written
        #: ``except: unpin(frame); raise`` cleanup handler.
        self.non_risky = set(self.release_map) | set(self.mark_dirty_map)
        self.static_vocab = (
            set(self.acquire_map) | set(self.release_map)
            | set(self.mark_dirty_map) | set(self.mutator_map) | self.free_set
        )


# ---------------------------------------------------------------------------
# call scan: resolution, held locks, shared-container accesses


def _subclass_map(index: PackageIndex) -> Dict[str, List[str]]:
    """class qualname -> transitive subclasses (sorted, excludes self)."""
    direct: Dict[str, List[str]] = {}
    for cls_qual, info in index.classes.items():
        for base in info.bases:
            direct.setdefault(base, []).append(cls_qual)
    out: Dict[str, List[str]] = {}
    for base in direct:
        seen: Set[str] = set()
        stack = list(direct[base])
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(direct.get(cls, ()))
        out[base] = sorted(seen)
    return out


class _ScanResult:
    def __init__(self) -> None:
        self.raises_locally = False
        self.call_sites: List[CallSiteRecord] = []
        self.accesses: List[AccessRecord] = []
        #: id(Call node) -> candidate callee qualnames.
        self.resolution: Dict[int, Tuple[str, ...]] = {}
        #: flow-insensitive local variable -> class qualname.
        self.local_types: Dict[str, str] = {}


class _CallScanner(ast.NodeVisitor):
    """One traversal: resolve calls, track held locks, record accesses."""

    def __init__(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        index: PackageIndex,
        resolver: Resolver,
        subclasses: Dict[str, List[str]],
        containers: Dict[Tuple[str, str], str],
        guards: Tuple[str, ...],
    ) -> None:
        self.fn = fn
        self.module = module
        self.index = index
        self.resolver = resolver
        self.subclasses = subclasses
        self.containers = containers
        self.guards = guards
        self.locals = _local_names(fn.node)
        self.held: List[str] = []
        self.result = _ScanResult()
        #: ids of Name/Attribute nodes consumed by a write (skip as reads).
        self._write_bases: Set[int] = set()

    def run(self) -> _ScanResult:
        self._infer_local_types()
        for stmt in self.fn.node.body:
            self.visit(stmt)
        return self.result

    # -- local variable types (flow-insensitive) ---------------------------

    def _infer_local_types(self) -> None:
        types = self.result.local_types
        if self.fn.cls is not None and not self.fn.is_staticmethod:
            args = self.fn.node.args
            names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
            if names:
                types[names[0]] = self.fn.cls
        for name in self.fn.all_params():
            direct, _ = self.resolver.param_type(self.fn, name)
            if direct is not None:
                types.setdefault(name, direct)
        for node in ast.walk(self.fn.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            name = node.targets[0].id
            if name in types:
                continue
            cls = self._expr_class(node.value)
            if cls is not None:
                types[name] = cls

    def _expr_class(self, node: ast.expr) -> Optional[str]:
        """Best-effort static class of an expression."""
        if isinstance(node, ast.Name):
            return self.result.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_class(node.value)
            if base is None:
                return None
            return self.resolver.attr_type(base, node.attr)
        if isinstance(node, ast.Subscript):
            inner = node.value
            if isinstance(inner, ast.Attribute):
                base = self._expr_class(inner.value)
                if base is not None:
                    return self.resolver.attr_elem(base, inner.attr)
            return None
        if isinstance(node, ast.Call):
            candidates = self._resolve_call(node, record=False)
            for qual in candidates:
                if qual.endswith(".__init__"):
                    return qual.rsplit(".", 1)[0]
                fn = self.index.functions.get(qual)
                if fn is not None:
                    direct, _ = self.resolver.return_type(fn)
                    if direct is not None:
                        return direct
            return None
        return None

    # -- call resolution ---------------------------------------------------

    def _resolve_call(self, node: ast.Call, record: bool = True) -> Tuple[str, ...]:
        if record and id(node) in self.result.resolution:
            return self.result.resolution[id(node)]
        candidates = self._resolve_func(node.func)
        if record:
            self.result.resolution[id(node)] = candidates
        return candidates

    def _resolve_func(self, func: ast.expr) -> Tuple[str, ...]:
        if isinstance(func, ast.Name):
            if func.id in self.locals:
                return ()
            resolved = self.resolver.resolve_dotted(self.module, func.id)
            return self._as_callable(resolved)
        if isinstance(func, ast.Attribute):
            # Instance-typed receiver first (self.x.m(), frame.node.m()...).
            base_cls = self._expr_class(func.value)
            if base_cls is not None:
                return self._method_candidates(base_cls, func.attr)
            # Plain dotted chain: module.func, Class.method, imported names.
            dotted = _dotted_name(func)
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                if head not in self.locals:
                    resolved = self.resolver.resolve_dotted(self.module, dotted)
                    return self._as_callable(resolved)
        return ()

    def _as_callable(self, resolved: Optional[str]) -> Tuple[str, ...]:
        if resolved is None:
            return ()
        if resolved in self.index.functions:
            return (resolved,)
        if resolved in self.index.classes:
            init = self.resolver.method(resolved, "__init__")
            return (init.qualname,) if init is not None else ()
        return ()

    def _method_candidates(self, cls: str, name: str) -> Tuple[str, ...]:
        found = self.resolver.method(cls, name)
        if found is not None:
            return (found.qualname,)
        # The method only exists on subclasses (e.g. ``Node.route`` defined
        # by ``InternalNode``): the call dispatches to one of them.
        candidates = []
        for sub in self.subclasses.get(cls, ()):
            info = self.index.classes[sub]
            qual = info.methods.get(name)
            if qual is not None:
                candidates.append(qual)
        return tuple(sorted(candidates))

    # -- lock identity -----------------------------------------------------

    def _lock_id(self, expr: ast.expr) -> str:
        dotted = _dotted_name(expr)
        if dotted is not None:
            head, _, tail = dotted.partition(".")
            if head == "self" and self.fn.cls is not None and tail:
                # Anchor at the class that declares the attribute, so base
                # and subclass methods agree on the lock's identity.
                attr = tail.split(".", 1)[0]
                owner = self.fn.cls
                for cls in self.resolver.mro(self.fn.cls):
                    if (cls, attr) in self.resolver.attr_types or any(
                        f == attr for f, _ in self.index.classes[cls].fields
                    ):
                        owner = cls
                        break
                return f"{owner}.{tail}"
            if head in self.locals:
                return f"{self.fn.qualname}.{dotted}"
            imported = self.module.imports.get(head)
            if imported is not None:
                base = self.resolver.canonical(imported)
                return base + (f".{tail}" if tail else "")
            return f"{self.module.name}.{dotted}"
        return f"{self.module.name}:{ast.dump(expr)}"

    # -- container accesses ------------------------------------------------

    def _container_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return None
            qual = self.containers.get((self.module.name, node.id))
            if qual is not None:
                return qual
            dotted = self.module.imports.get(node.id)
            if dotted is not None:
                target = self.resolver.canonical(dotted)
                prefix, _, leaf = target.rpartition(".")
                return self.containers.get((prefix, leaf))
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = node.value.id
            owners: List[str] = []
            if base == "self" and self.fn.cls is not None:
                owners = self.resolver.mro(self.fn.cls)
            elif base not in self.locals:
                cls = self.resolver.resolve_dotted(self.module, base)
                if cls in self.index.classes:
                    owners = self.resolver.mro(cls)
            for owner in owners:
                qual = self.containers.get((owner, node.attr))
                if qual is not None:
                    return qual
        return None

    def _access(self, qual: Optional[str], kind: str, line: int) -> None:
        if qual is None:
            return
        self.result.accesses.append(
            AccessRecord(qual, kind, line, tuple(sorted(set(self.held))))
        )

    def _write_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            self._write_bases.add(id(target.value))
            self._access(
                self._container_of(target.value), "write", target.lineno
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(elt)

    # -- visitors ----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are opaque

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Raise(self, node: ast.Raise) -> None:
        self.result.raises_locally = True
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            if _mentions_guard(item.context_expr, self.guards):
                acquired.append(self._lock_id(item.context_expr))
        self.held.extend(acquired)
        for child in node.body:
            self.visit(child)
        if acquired:
            del self.held[-len(acquired):]

    visit_AsyncWith = visit_With

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        candidates = self._resolve_call(node)
        held = tuple(sorted(set(self.held)))
        for qual in candidates:
            self.result.call_sites.append(CallSiteRecord(qual, held))
        func = node.func
        if (
            not candidates
            and isinstance(func, ast.Attribute)
            and func.attr in _WRITE_METHODS
        ):
            self._write_bases.add(id(func.value))
            self._access(self._container_of(func.value), "write", node.lineno)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._write_bases:
            self._access(self._container_of(node), "read", node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and id(node) not in self._write_bases
            and isinstance(node.value, ast.Name)
        ):
            qual = self._container_of(node)
            if qual is not None:
                self._access(qual, "read", node.lineno)
                return  # don't double-count the base Name
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# protocol dataflow


_EMPTY: FrozenSet = frozenset()

#: rid — one acquire site: (resource name, line, col).
Rid = Tuple[str, int, int]
#: binding — ("r", rid) resource | ("v", rid) view of it | ("p", param).
Binding = Tuple[str, object]


class _State:
    """Abstract store at one CFG point: bindings + obligation sets."""

    __slots__ = ("env", "live", "dead")

    def __init__(
        self,
        env: Optional[Dict[str, FrozenSet[Binding]]] = None,
        live: FrozenSet[Rid] = _EMPTY,
        dead: FrozenSet[Rid] = _EMPTY,
    ) -> None:
        self.env = dict(env or {})
        self.live = live
        self.dead = dead

    def copy(self) -> "_State":
        return _State(self.env, self.live, self.dead)

    def merge(self, other: "_State") -> bool:
        changed = False
        for name, bindings in other.env.items():
            current = self.env.get(name, _EMPTY)
            union = current | bindings
            if union != current:
                self.env[name] = union
                changed = True
        if other.live - self.live:
            self.live |= other.live
            changed = True
        if other.dead - self.dead:
            self.dead |= other.dead
            changed = True
        return changed


def _res_rids(bindings: FrozenSet[Binding]) -> Set[Rid]:
    return {payload for kind, payload in bindings if kind == "r"}


def _tracked_rids(bindings: FrozenSet[Binding]) -> Set[Rid]:
    return {payload for kind, payload in bindings if kind in ("r", "v")}


class _ProtocolFlow:
    """Tagged may-liveness dataflow for one function (see module docstring).

    States are keyed ``(cfg node, tag)`` where the tag is ``None`` on the
    all-normal path, or ``(line, candidate callees)`` of the *first* call
    whose exception created the path. Tags make conditional leaks
    reportable against their trigger without path enumeration.
    """

    def __init__(
        self,
        fn: FunctionInfo,
        index: PackageIndex,
        config: ProtocolConfig,
        summaries: Dict[str, FunctionFacts],
        scan: _ScanResult,
    ) -> None:
        self.fn = fn
        self.index = index
        self.config = config
        self.summaries = summaries
        self.scan = scan
        self.leaks: Set[LeakRecord] = set()
        self.mutated: Set[Rid] = set()
        self.released_clean: Dict[Rid, int] = {}
        self.released_dirty: Set[Rid] = set()
        self.marked: Set[Rid] = set()
        self.mutators: Set[MutatorRecord] = set()
        self.free_calls: Set[FreeRecord] = set()
        self.acquires_by_return: Set[str] = set()
        self.releases_params: Set[Tuple[str, str]] = set()
        # per-iteration worklist context
        self._cfg: Optional[CFG] = None
        self._states: Dict[Tuple[int, object], _State] = {}
        self._work: List[Tuple[int, object]] = []
        self._node = CFG.ENTRY
        self._tag: object = None

    def run(self, base: FunctionFacts) -> FunctionFacts:
        cfg = build_cfg(self.fn.node)
        self._cfg = cfg
        init = _State()
        for param in self.fn.all_params():
            init.env[param] = frozenset({("p", param)})
        self._states = {(CFG.ENTRY, None): init}
        self._work = [(CFG.ENTRY, None)]
        guard = 0
        while self._work and guard < 200_000:
            guard += 1
            node, tag = self._work.pop(0)
            state = self._states[(node, tag)]
            if node == CFG.EXIT:
                self._record_exit(state, tag, uncaught=False)
                continue
            if node == CFG.RAISE:
                self._record_exit(state, tag, uncaught=True)
                continue
            out = state.copy()
            self._node, self._tag = node, tag
            if node != CFG.ENTRY:
                stmt = cfg.stmts[node]
                self._transfer(stmt, out)
                if isinstance(stmt, ast.Raise):
                    self._push(cfg.exc[node], out, tag)
                    continue
            for succ in cfg.succ[node]:
                self._merge_in(succ, tag, out)

        dirty: List[DirtyRecord] = []
        for rid, line in self.released_clean.items():
            if rid not in self.mutated or rid in self.released_dirty:
                continue
            if rid in self.marked:
                continue
            resource = self.config.resource_by_name.get(rid[0])
            if resource is not None and resource.dirty_param:
                dirty.append(DirtyRecord(rid[0], rid[1], line))
        return replace(
            base,
            leaks=tuple(sorted(self.leaks)),
            dirty=tuple(sorted(dirty)),
            mutators=tuple(sorted(self.mutators)),
            free_calls=tuple(sorted(self.free_calls)),
            acquires_by_return=tuple(sorted(self.acquires_by_return)),
            releases_params=tuple(sorted(self.releases_params)),
        )

    # -- worklist plumbing -------------------------------------------------

    def _merge_in(self, node: int, tag: object, incoming: _State) -> None:
        key = (node, tag)
        current = self._states.get(key)
        if current is None:
            self._states[key] = incoming.copy()
            self._work.append(key)
        elif current.merge(incoming):
            self._work.append(key)

    def _push(
        self, targets: Tuple[int, ...], state: _State, tag: object
    ) -> None:
        for target in targets:
            self._merge_in(target, tag, state)

    def _emit_exc(self, state: _State, line: int, callees: Tuple[str, ...]) -> None:
        assert self._cfg is not None
        tag = self._tag if self._tag is not None else (line, callees)
        self._push(self._cfg.exc[self._node], state, tag)

    def _record_exit(self, state: _State, tag: object, uncaught: bool) -> None:
        for rid in state.live:
            if uncaught:
                kind = "uncaught"
            elif tag is None:
                kind = "normal"
            else:
                kind = "caught"
            trigger_line, trigger_callees = tag if tag is not None else (0, ())
            self.leaks.add(
                LeakRecord(
                    resource=rid[0],
                    acquire_line=rid[1],
                    kind=kind,
                    trigger_line=trigger_line,
                    trigger_callees=tuple(trigger_callees),
                )
            )

    # -- statement transfer ------------------------------------------------

    def _transfer(self, stmt: ast.AST, state: _State) -> None:
        if isinstance(stmt, ast.Assign):
            target = stmt.targets[0] if len(stmt.targets) == 1 else None
            if (
                isinstance(stmt.value, ast.Tuple)
                and isinstance(target, ast.Tuple)
                and len(target.elts) == len(stmt.value.elts)
            ):
                values = [self._eval(e, state) for e in stmt.value.elts]
                for elt, val in zip(target.elts, values):
                    self._assign(elt, val, state)
                return
            val = self._eval(stmt.value, state)
            for tgt in stmt.targets:
                self._assign(tgt, val, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value, state), state)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, state)
            if isinstance(stmt.target, (ast.Attribute, ast.Subscript)):
                self._mutation_target(stmt.target, state)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._eval(stmt.value, state)
                returned = _res_rids(val) & state.live
                if returned:
                    state.live -= returned
                    for rid in returned:
                        self.acquires_by_return.add(rid[0])
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            if stmt.cause is not None:
                self._eval(stmt.cause, state)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    state.env.pop(tgt.id, None)
                elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
                    self._mutation_target(tgt, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, state)
            for leaf in ast.walk(stmt.target):
                if isinstance(leaf, ast.Name):
                    state.env[leaf.id] = _EMPTY
        elif isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self._eval(item.context_expr, state)
                if isinstance(item.optional_vars, ast.Name):
                    state.env[item.optional_vars.id] = val
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                state.env[stmt.name] = _EMPTY
        elif isinstance(stmt, ast.Assert):
            # Asserts are deliberately not exception sources (module doc).
            self._eval(stmt.test, state)
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self._eval(stmt.subject, state)

    def _assign(self, target: ast.expr, val: FrozenSet[Binding], state: _State) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = val
        elif isinstance(target, ast.Starred):
            self._assign(target.value, _EMPTY, state)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Obligation escapes into a structure we do not track.
            self._mutation_target(target, state)
            state.live -= frozenset(_res_rids(val))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, _EMPTY, state)
            state.live -= frozenset(_res_rids(val))

    def _mutation_target(self, target: ast.expr, state: _State) -> None:
        node: ast.expr = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            self.mutated |= _tracked_rids(state.env.get(node.id, _EMPTY))

    # -- expression evaluation ---------------------------------------------

    def _eval(self, expr: ast.expr, state: _State) -> FrozenSet[Binding]:
        if isinstance(expr, ast.Name):
            return state.env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Attribute):
            base = self._eval(expr.value, state)
            return frozenset(("v", rid) for rid in _tracked_rids(base))
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, state)
            self._eval_children(expr.slice, state)
            return frozenset(("v", rid) for rid in _tracked_rids(base))
        if isinstance(expr, ast.Call):
            return self._call(expr, state)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            escaped: Set[Rid] = set()
            for elt in expr.elts:
                escaped |= _res_rids(self._eval(elt, state))
            state.live -= frozenset(escaped)
            return _EMPTY
        if isinstance(expr, ast.Dict):
            escaped = set()
            for part in list(expr.keys) + list(expr.values):
                if part is not None:
                    escaped |= _res_rids(self._eval(part, state))
            state.live -= frozenset(escaped)
            return _EMPTY
        if isinstance(expr, ast.BoolOp):
            out: FrozenSet[Binding] = _EMPTY
            for value in expr.values:
                out |= self._eval(value, state)
            return out
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, state)
            return self._eval(expr.body, state) | self._eval(expr.orelse, state)
        if isinstance(expr, ast.NamedExpr):
            val = self._eval(expr.value, state)
            self._assign(expr.target, val, state)
            return val
        if isinstance(expr, (ast.Await, ast.Starred)):
            return self._eval(expr.value, state)
        if isinstance(expr, ast.Lambda):
            return _EMPTY  # opaque
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return _EMPTY  # opaque (module docstring)
        if isinstance(expr, ast.Constant):
            return _EMPTY
        self._eval_children(expr, state)
        return _EMPTY

    def _eval_children(self, expr: ast.AST, state: _State) -> None:
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child, state)

    # -- call handling -----------------------------------------------------

    def _call(self, call: ast.Call, state: _State) -> FrozenSet[Binding]:
        config = self.config
        candidates = self.scan.resolution.get(id(call), ())
        base_bindings: FrozenSet[Binding] = _EMPTY
        if isinstance(call.func, ast.Attribute):
            base_bindings = self._eval(call.func.value, state)

        arg_vals: List[FrozenSet[Binding]] = []
        starred = False
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                starred = True
            arg_vals.append(self._eval(arg, state))
        kw_vals: Dict[str, FrozenSet[Binding]] = {}
        for kw in call.keywords:
            val = self._eval(kw.value, state)
            if kw.arg is None:
                state.live -= frozenset(_res_rids(val))
            else:
                kw_vals[kw.arg] = val

        if (
            not candidates
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _WRITE_METHODS
        ):
            self.mutated |= _tracked_rids(base_bindings)

        # Exception edge: taken before this call's own acquire/release
        # effects — if the call raises, neither happened.
        risky = tuple(q for q in candidates if q not in config.non_risky)
        if risky:
            self._emit_exc(state.copy(), call.lineno, risky)

        acquired_names: Set[str] = set()
        for qual in candidates:
            if qual in config.release_map:
                resource, param, dirty_param = config.release_map[qual]
                arg_b, _ = self._arg_for(
                    qual, param, call, arg_vals, kw_vals, starred
                )
                for kind, payload in arg_b:
                    if kind == "p":
                        self.releases_params.add((payload, resource))
                rids = _res_rids(arg_b)
                dirty = self._dirty_value(qual, dirty_param, call)
                for rid in rids:
                    if dirty:
                        self.released_dirty.add(rid)
                    else:
                        self.released_clean.setdefault(rid, call.lineno)
                state.live -= frozenset(rids)
                state.dead |= frozenset(rids)
            elif qual in config.mark_dirty_map:
                first = arg_vals[0] if arg_vals else _EMPTY
                self.marked |= _tracked_rids(first)
            if qual in config.mutator_map:
                mutator = config.mutator_map[qual]
                arg_b, arg_expr = self._arg_for(
                    qual, mutator.param, call, arg_vals, kw_vals, starred
                )
                dead_only = bool(arg_b) and all(
                    kind == "r" and payload in state.dead
                    and payload not in state.live
                    for kind, payload in arg_b
                )
                if isinstance(arg_expr, ast.Constant) or dead_only:
                    self.mutators.add(
                        MutatorRecord(qual, call.lineno, mutator.resource)
                    )
            if qual in config.free_set:
                self.free_calls.add(FreeRecord(qual, call.lineno))
            summary = self.summaries.get(qual)
            if summary is not None and summary.releases_params:
                for param, resource in summary.releases_params:
                    arg_b, _ = self._arg_for(
                        qual, param, call, arg_vals, kw_vals, starred
                    )
                    rids = _res_rids(arg_b)
                    state.live -= frozenset(rids)
                    state.dead |= frozenset(rids)
                    # The helper owns the dirty decision now.
                    self.released_dirty |= rids
            if qual in config.acquire_map:
                acquired_names.add(config.acquire_map[qual])
            elif summary is not None:
                acquired_names.update(summary.acquires_by_return)

        if not candidates:
            # Unresolved callee: any resource argument escapes (obligation
            # may transfer into a container or foreign code).
            escaped: Set[Rid] = set()
            for val in arg_vals:
                escaped |= _res_rids(val)
            for val in kw_vals.values():
                escaped |= _res_rids(val)
            state.live -= frozenset(escaped)
            return _EMPTY

        if acquired_names:
            bindings: Set[Binding] = set()
            for name in sorted(acquired_names):
                rid: Rid = (name, call.lineno, call.col_offset)
                state.live |= frozenset({rid})
                bindings.add(("r", rid))
            return frozenset(bindings)
        return _EMPTY

    def _arg_for(
        self,
        qual: str,
        param: str,
        call: ast.Call,
        arg_vals: List[FrozenSet[Binding]],
        kw_vals: Dict[str, FrozenSet[Binding]],
        starred: bool,
    ) -> Tuple[FrozenSet[Binding], Optional[ast.expr]]:
        """Bindings + expression of the argument bound to ``param``."""
        for kw in call.keywords:
            if kw.arg == param:
                return kw_vals.get(param, _EMPTY), kw.value
        info = self.index.functions.get(qual)
        if info is not None and not starred:
            positional = info.positional_params()
            if param in positional:
                pos = positional.index(param)
                if pos < len(call.args):
                    return arg_vals[pos], call.args[pos]
                return _EMPTY, None
        if call.args and not starred:
            return arg_vals[0], call.args[0]
        return _EMPTY, None

    def _dirty_value(self, qual: str, dirty_param: str, call: ast.Call) -> bool:
        """Whether this release marks the resource dirty.

        Missing argument -> clean (the default); constant -> its truth;
        anything dynamic -> treated as dirty (the caller's conditional is
        assumed correct — flow-insensitive benefit of the doubt).
        """
        if not dirty_param:
            return True  # resource has no dirty protocol: never flag
        expr: Optional[ast.expr] = None
        for kw in call.keywords:
            if kw.arg == dirty_param:
                expr = kw.value
                break
        if expr is None:
            info = self.index.functions.get(qual)
            if info is not None:
                positional = info.positional_params()
                if dirty_param in positional:
                    pos = positional.index(dirty_param)
                    if pos < len(call.args):
                        expr = call.args[pos]
        if expr is None:
            return False
        if isinstance(expr, ast.Constant):
            return bool(expr.value)
        return True


# ---------------------------------------------------------------------------
# whole-package extraction


def extract_all_facts(
    index: PackageIndex,
    resolver: Resolver,
    spec: LeakageSpec,
    seeded: Optional[Dict[str, FunctionFacts]] = None,
    dirty_quals: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, FunctionFacts], int]:
    """Facts for every function; seeded entries for clean modules are kept.

    Returns ``(facts, extracted)`` where ``extracted`` counts the functions
    actually (re-)scanned — the incremental driver's ``facts_reextracted``
    statistic. When ``dirty_quals`` is None, everything is extracted.
    """
    policy = getattr(spec, "resource_protocols", None)
    config = ProtocolConfig(policy, resolver) if policy is not None else None
    conc = spec.concurrency
    lockset_on = bool(conc is not None and conc.entry_points)
    guards: Tuple[str, ...] = (
        tuple(conc.lock_guards) if conc is not None else ("lock", "_lock", "mutex")
    )
    containers = _shared_containers(index) if lockset_on else {}

    facts: Dict[str, FunctionFacts] = dict(seeded or {})
    if dirty_quals is None:
        targets = sorted(index.functions)
    else:
        targets = sorted(q for q in dirty_quals if q in index.functions)
    subclasses = _subclass_map(index)

    scans: Dict[str, _ScanResult] = {}
    for qual in targets:
        fn = index.functions[qual]
        module = index.modules[fn.module]
        scan = _CallScanner(
            fn, module, index, resolver, subclasses, containers, guards
        ).run()
        scans[qual] = scan
        facts[qual] = FunctionFacts(
            raises_locally=scan.raises_locally,
            call_sites=tuple(scan.call_sites),
            accesses=tuple(scan.accesses),
        )

    if config is not None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            vocab = set(config.static_vocab)
            for qual, fact in facts.items():
                if fact.acquires_by_return or fact.releases_params:
                    vocab.add(qual)
            for qual in targets:
                scan = scans[qual]
                if not ({c.callee for c in scan.call_sites} & vocab):
                    continue
                fn = index.functions[qual]
                flow = _ProtocolFlow(fn, index, config, facts, scan)
                new = flow.run(facts[qual])
                if new != facts[qual]:
                    facts[qual] = new
                    changed = True
            if not changed:
                break
    return facts, len(targets)


def ensure_facts(ctx) -> Dict[str, FunctionFacts]:
    """Facts from the pass context, extracting fresh when not pre-seeded."""
    if getattr(ctx, "facts", None) is None:
        ctx.facts, _ = extract_all_facts(ctx.index, ctx.resolver, ctx.spec)
    return ctx.facts
