"""Whole-program taint propagation over the package call graph.

The engine is flow-insensitive and kind-based: every expression evaluates to
a set of taint *kinds* (``plaintext``, ``key``, ``sse_token``, ...), and
three summary maps carry kinds across function boundaries:

- ``param_kinds[fn][param]`` — kinds ever passed to a parameter,
- ``return_kinds[fn]`` — kinds a function may return,
- ``attr_kinds[(class, attr)]`` — kinds ever stored in an instance attribute
  (including container mutations: ``self._entries.append(x)``).

A worklist drives the fixpoint: when a summary grows, its dependents (the
function itself, its callers, attribute readers) are re-queued. Kind sets
only grow and are drawn from the finite spec vocabulary, so this terminates.

Incremental analysis support: every global fact the engine derives is also
recorded in a per-function :class:`Contribution` (what *this* function's body
contributed to the summaries, which sinks it hit, which crypto-relevant call
shapes it contains). Contributions are the unit of caching: the driver seeds
a warm engine with the cached contributions of unchanged modules and runs
the worklist only over the changed cone (see :mod:`.driver`). Witnesses,
flow representatives and origin maps are built *after* the fixpoint from the
merged contributions with deterministic (min-key) tie-breaking, so results
do not depend on worklist order — a cold run and a warm run over the same
tree produce byte-identical findings.

Precision notes (what keeps the false-positive rate workable):

- Spec sources with ``via: "return"`` are *retainting* — the result carries
  exactly the declared kind, replacing argument kinds. ``encrypt`` produces
  ciphertext, not key material.
- Attribute reads on a *known* class consult the attribute summary only, not
  the receiver object's own kinds, so holding a key-tainted cipher object
  does not make every string it formats key-tainted.
- Calls that cannot be resolved conservatively return the union of argument
  and receiver kinds.
- First-class *function references* are tracked through record fields
  (dataclass or ``NamedTuple``):
  ``Provider(capture=_capture_redo_log)`` records the function under
  ``attr_funcs[(Provider, "capture")]``, and a later ``provider.capture(x)``
  invokes every recorded callee — this is how the snapshot artifact registry
  stays visible to the analyzer instead of laundering flows through an
  opaque callable.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .modindex import FunctionInfo, ModuleInfo, PackageIndex
from .resolve import Resolver, _dotted_name
from .spec import LeakageSpec, SinkSpec

_EMPTY: FrozenSet[str] = frozenset()

#: Method names treated as writing their arguments into the receiver
#: container (the ``self._ring.append(record)`` idiom).
_MUTATORS = {
    "append", "appendleft", "add", "extend", "extendleft", "insert",
    "update", "setdefault", "push",
}
#: Accessor methods whose result aliases the receiver container's contents.
_ACCESSORS = {"get", "setdefault", "pop", "popitem", "popleft", "move_to_end"}

#: Builtins whose result reveals shape/identity, not content: ``len(key)``
#: is a block count, not key material. Without this, heap addresses become
#: key-tainted via ``len(self._arena)`` and the taint floods every integer.
_CLEAN_BUILTINS = {
    "len", "isinstance", "issubclass", "bool", "id", "type", "callable",
    "hasattr", "range",
}

#: Logging-style method names: an unresolved ``x.debug(key)`` call is a
#: display surface for whatever it formats (crypto-misuse pass input).
_LOG_METHODS = {"log", "debug", "info", "warning", "error", "critical",
                "exception"}

#: Default parameter names treated as nonce/IV positions when the spec does
#: not configure ``crypto_policy.nonce_params``.
_DEFAULT_NONCE_PARAMS = ("nonce", "iv")


class Value:
    """Abstract value: taint kinds + best-known static type."""

    __slots__ = ("kinds", "type", "elem", "attr_ref", "elems", "funcs")

    def __init__(
        self,
        kinds: FrozenSet[str] = _EMPTY,
        type: Optional[str] = None,
        elem: Optional[str] = None,
        attr_ref: Optional[Tuple[str, str]] = None,
        elems: Optional[Tuple[Optional[str], ...]] = None,
        funcs: FrozenSet[str] = _EMPTY,
    ) -> None:
        self.kinds = kinds
        self.type = type
        self.elem = elem
        self.attr_ref = attr_ref
        # Per-position classes of a ``Tuple[A, B]`` return, so unpacking
        # assignments type each target.
        self.elems = elems
        # Function qualnames this value may refer to (first-class function
        # references, e.g. a capture callable stored in a provider field).
        self.funcs = funcs


EMPTY_VALUE = Value()


@dataclass
class Flow:
    """One observed taint→sink flow, with a human-readable witness chain."""

    taint: str
    sink: str
    category: str
    sink_callable: str
    function: str
    line: int
    witness: List[str] = field(default_factory=list)


@dataclass
class Contribution:
    """Everything one function's body contributed to the global state.

    This is the unit of incremental caching. Fields split into two groups:

    *Summary-feeding* outputs (``calls``, ``param_kinds``, ``returns``,
    ``attr_kinds``, ``attr_funcs``, ``release_calls``, ``tainted``) are
    consumed by other functions' evaluations; a warm run is exact only if a
    re-analyzed function's new summary outputs are a superset of its cached
    ones (checked by :meth:`retracts`, driver falls back to a full run
    otherwise).

    *Reporting* outputs (``sink_hits``, ``source_notes``, crypto events,
    ``attr_reads``) feed flows, witnesses and lint passes; they are merged
    deterministically after the fixpoint and never feed back into other
    functions, so they need no retraction check.
    """

    calls: Set[str] = field(default_factory=set)
    #: (callee, param, kind) -> min line of a contributing call site.
    param_kinds: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    returns: Set[str] = field(default_factory=set)
    #: (class, attr, kind) -> min line of a contributing write.
    attr_kinds: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    attr_funcs: Set[Tuple[str, str, str]] = field(default_factory=set)
    attr_reads: Set[Tuple[str, str]] = field(default_factory=set)
    #: (taint, sink id) -> (min line, sink callable, category).
    sink_hits: Dict[Tuple[str, str], Tuple[int, str, str]] = field(
        default_factory=dict
    )
    release_calls: Set[Tuple[int, str]] = field(default_factory=set)
    #: taint -> (min line, source callable) for witness origin text.
    source_notes: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    #: (source callable, taint, line) — every declared-source invocation.
    source_invocations: Set[Tuple[str, str, int]] = field(default_factory=set)
    #: (line, callee, param, form, value repr); form is "const" or "global".
    nonce_args: Set[Tuple[int, str, str, str, str]] = field(default_factory=set)
    #: (line, context, kind) — key material reaching a format/display site.
    key_format_events: Set[Tuple[int, str, str]] = field(default_factory=set)
    tainted: bool = False

    def retracts(self, old: "Contribution") -> bool:
        """True if ``old`` derived a summary-feeding fact this one lost."""
        return bool(
            old.returns - self.returns
            or set(old.param_kinds) - set(self.param_kinds)
            or set(old.attr_kinds) - set(self.attr_kinds)
            or old.attr_funcs - self.attr_funcs
            or old.calls - self.calls
            or {t for _, t in old.release_calls}
            - {t for _, t in self.release_calls}
            or (old.tainted and not self.tainted)
        )


@dataclass
class TaintResult:
    flows: Dict[Tuple[str, str], Flow]
    tainted_functions: Set[str]
    release_sites: List[Tuple[str, int, str]]
    warnings: List[str]
    #: callee -> callers, for reachability in lint passes.
    callers: Dict[str, Set[str]] = field(default_factory=dict)
    return_kinds: Dict[str, Set[str]] = field(default_factory=dict)
    #: (function, line, context, kind) sorted.
    key_format_events: List[Tuple[str, int, str, str]] = field(
        default_factory=list
    )
    #: (function, line, callee, param, form, value repr) sorted.
    nonce_args: List[Tuple[str, int, str, str, str, str]] = field(
        default_factory=list
    )
    #: (function, source callable, taint, line) sorted.
    source_invocations: List[Tuple[str, str, str, int]] = field(
        default_factory=list
    )
    functions_processed: int = 0


class TaintEngine:
    def __init__(
        self, index: PackageIndex, resolver: Resolver, spec: LeakageSpec
    ) -> None:
        self.index = index
        self.resolver = resolver
        self.spec = spec
        self.warnings: List[str] = []

        self.return_sources: Dict[str, str] = {}
        self.param_source_seeds: List[Tuple[str, str, str]] = []  # fn, param, taint
        self.sinks: Dict[str, SinkSpec] = {}
        self.sanitizers: Set[str] = set()
        self.artifacts: Set[str] = set()
        self.release_points: Set[str] = set()
        # Key taints never ride along on object-kind unions: a cipher OBJECT
        # is key-derived, but its outputs carry the declared ciphertext
        # kinds; key itself moves only through declared sources and
        # body-level data flow. Without this exclusion every method call on
        # a cipher would smear `key` over its results.
        self.key_kinds: FrozenSet[str] = frozenset(spec.key_taints)
        nonce_params = set(_DEFAULT_NONCE_PARAMS)
        if spec.crypto_policy is not None:
            nonce_params.update(spec.crypto_policy.nonce_params)
        self.nonce_params: FrozenSet[str] = frozenset(nonce_params)
        # Size-provenance (volume) domain: only active when the spec carries
        # a volume_surface section. ``len()`` of tainted data yields the
        # length kind; declared wall-clock sources yield the duration kind.
        vol = spec.volume_surface
        self.volume_length_kind: Optional[str] = None
        self.volume_duration_kind: Optional[str] = None
        self.volume_kind_set: FrozenSet[str] = _EMPTY
        self.volume_duration_sources: FrozenSet[str] = frozenset()
        if vol is not None:
            self.volume_length_kind = vol.length_taint
            self.volume_duration_kind = vol.duration_taint
            self.volume_kind_set = vol.volume_kinds()
            self.volume_duration_sources = frozenset(vol.duration_sources)
        self._bind_spec()

        self.param_kinds: Dict[str, Dict[str, Set[str]]] = {}
        self.return_kinds: Dict[str, Set[str]] = {}
        self.attr_kinds: Dict[Tuple[str, str], Set[str]] = {}
        #: (class, attr) -> function qualnames ever stored in that field.
        self.attr_funcs: Dict[Tuple[str, str], Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self.attr_readers: Dict[Tuple[str, str], Set[str]] = {}

        #: Per-function contribution records (the incremental cache unit).
        self.contribs: Dict[str, Contribution] = {}
        #: Functions actually evaluated by this run's worklist (warm runs
        #: keep this small; the bench reports it).
        self.processed: Set[str] = set()

        self._queue: deque = deque()
        self._inqueue: Set[str] = set()
        self.current: str = ""
        self._module: Optional[ModuleInfo] = None

    # -- spec binding ------------------------------------------------------

    def _bind_spec(self) -> None:
        def resolve(name: str, what: str) -> Optional[str]:
            qual = self.resolver.canonical(name)
            if qual in self.index.functions or qual in self.index.classes:
                return qual
            self.warnings.append(f"spec {what} does not resolve: {name}")
            return None

        for src in self.spec.sources:
            qual = resolve(src.callable, "source")
            if qual is None:
                continue
            if src.via == "return":
                self.return_sources[qual] = src.taint
            else:
                fn = self._callable_function(qual)
                if fn is None:
                    self.warnings.append(
                        f"spec source {src.callable}: param source must "
                        "name a function"
                    )
                elif src.param not in fn.all_params():
                    self.warnings.append(
                        f"spec source {src.callable}: no parameter "
                        f"{src.param!r}"
                    )
                else:
                    self.param_source_seeds.append((fn.qualname, src.param, src.taint))
        for snk in self.spec.sinks:
            qual = resolve(snk.callable, "sink")
            if qual is not None:
                self.sinks[qual] = snk
        for name in self.spec.sanitizers:
            qual = resolve(name, "sanitizer")
            if qual is not None:
                self.sanitizers.add(qual)
        for name in self.spec.artifacts:
            qual = self.resolver.canonical(name)
            if qual in self.index.classes:
                self.artifacts.add(qual)
            else:
                self.warnings.append(f"spec artifact is not a class: {name}")
        for name in self.spec.release_points:
            qual = resolve(name, "release point")
            if qual is not None:
                self.release_points.add(qual)

    def _callable_function(self, qual: str) -> Optional[FunctionInfo]:
        fn = self.index.functions.get(qual)
        if fn is not None:
            return fn
        if qual in self.index.classes:
            return self.resolver.method(qual, "__init__")
        return None

    # -- incremental seeding -----------------------------------------------

    def seed_contributions(self, cached: Mapping[str, Contribution]) -> None:
        """Preload global summaries from cached per-function contributions.

        Seeded functions are NOT enqueued: their facts are assumed current.
        The worklist re-reaches them only if a dirty function grows one of
        their inputs (standard monotone propagation).
        """
        for fn, c in cached.items():
            self.contribs[fn] = c
            for callee in c.calls:
                self.callers.setdefault(callee, set()).add(fn)
            for (callee, param, kind) in c.param_kinds:
                self.param_kinds.setdefault(callee, {}).setdefault(
                    param, set()
                ).add(kind)
            if c.returns:
                self.return_kinds.setdefault(fn, set()).update(c.returns)
            for (cls, attr, kind) in c.attr_kinds:
                self.attr_kinds.setdefault((cls, attr), set()).add(kind)
            for (cls, attr, func) in c.attr_funcs:
                self.attr_funcs.setdefault((cls, attr), set()).add(func)
            for key in c.attr_reads:
                self.attr_readers.setdefault(key, set()).add(fn)

    # -- driver ------------------------------------------------------------

    def run(self, initial: Optional[Iterable[str]] = None) -> TaintResult:
        for fn_qual, param, taint in self.param_source_seeds:
            self.param_kinds.setdefault(fn_qual, {}).setdefault(param, set()).add(
                taint
            )
        if initial is None:
            worklist = sorted(self.index.functions)
        else:
            worklist = sorted(q for q in initial if q in self.index.functions)
        for qual in worklist:
            self._enqueue(qual)
        budget = max(2000, 50 * len(self.index.functions))
        steps = 0
        while self._queue:
            steps += 1
            if steps > budget:
                self.warnings.append(
                    "taint fixpoint did not converge within budget; results "
                    "may be incomplete"
                )
                break
            qual = self._queue.popleft()
            self._inqueue.discard(qual)
            self._process(qual)
        return self._finalize()

    def _finalize(self) -> TaintResult:
        """Merge contributions into the result with deterministic ties.

        Flow representatives, witness origins and source notes are selected
        by min-key ordering over (function, line, ...) so the outcome is a
        pure function of the merged contribution set — independent of
        whether facts arrived from this run's worklist or a warm cache.
        """
        contribs = self.contribs
        tainted = {fn for fn, c in contribs.items() if c.tainted}
        release_sites = sorted(
            {
                (fn, line, target)
                for fn, c in contribs.items()
                for (line, target) in c.release_calls
            }
        )

        # Witness origin maps (min-key deterministic).
        self.source_calls: Dict[Tuple[str, str], str] = {}
        for fn_qual, param, taint in self.param_source_seeds:
            self.source_calls[(fn_qual, taint)] = (
                f"parameter {param!r} is a declared {taint} source"
            )
        best_note: Dict[Tuple[str, str], Tuple[int, str]] = {}
        for fn in sorted(contribs):
            for taint, (line, source_qual) in contribs[fn].source_notes.items():
                key = (fn, taint)
                prev = best_note.get(key)
                if prev is None or (line, source_qual) < prev:
                    best_note[key] = (line, source_qual)
        for (fn, taint), (line, source_qual) in best_note.items():
            self.source_calls.setdefault(
                (fn, taint),
                f"{taint} produced by {source_qual} (line {line})",
            )

        self.param_origin: Dict[Tuple[str, str, str], Tuple[str, int]] = {}
        self.attr_origin: Dict[Tuple[str, str, str], Tuple[str, int]] = {}
        self.fn_attr_reads: Dict[str, Set[Tuple[str, str]]] = {}
        for fn in sorted(contribs):
            c = contribs[fn]
            for (callee, param, kind), line in c.param_kinds.items():
                key = (callee, param, kind)
                prev = self.param_origin.get(key)
                if prev is None or (fn, line) < prev:
                    self.param_origin[key] = (fn, line)
            for (cls, attr, kind), line in c.attr_kinds.items():
                key = (cls, attr, kind)
                prev = self.attr_origin.get(key)
                if prev is None or (fn, line) < prev:
                    self.attr_origin[key] = (fn, line)
            if c.attr_reads:
                self.fn_attr_reads.setdefault(fn, set()).update(c.attr_reads)

        # Flow representatives: min (function, line, sink callable).
        flows: Dict[Tuple[str, str], Flow] = {}
        best_hit: Dict[Tuple[str, str], Tuple[str, int, str, str]] = {}
        for fn in sorted(contribs):
            for (taint, sink_id), (line, sink_qual, category) in contribs[
                fn
            ].sink_hits.items():
                cand = (fn, line, sink_qual, category)
                prev = best_hit.get((taint, sink_id))
                if prev is None or cand[:3] < prev[:3]:
                    best_hit[(taint, sink_id)] = cand
        for (taint, sink_id), (fn, line, sink_qual, category) in sorted(
            best_hit.items()
        ):
            flows[(taint, sink_id)] = Flow(
                taint=taint,
                sink=sink_id,
                category=category,
                sink_callable=sink_qual,
                function=fn,
                line=line,
                witness=self._witness(fn, taint, line, sink_qual),
            )

        return TaintResult(
            flows=flows,
            tainted_functions=tainted,
            release_sites=release_sites,
            warnings=self.warnings,
            callers={k: set(v) for k, v in self.callers.items()},
            return_kinds={k: set(v) for k, v in self.return_kinds.items()},
            key_format_events=sorted(
                (fn, line, context, kind)
                for fn, c in contribs.items()
                for (line, context, kind) in c.key_format_events
            ),
            nonce_args=sorted(
                (fn, line, callee, param, form, value)
                for fn, c in contribs.items()
                for (line, callee, param, form, value) in c.nonce_args
            ),
            source_invocations=sorted(
                (fn, source_qual, taint, line)
                for fn, c in contribs.items()
                for (source_qual, taint, line) in c.source_invocations
            ),
            functions_processed=len(self.processed),
        )

    def _enqueue(self, qual: str) -> None:
        if qual in self.index.functions and qual not in self._inqueue:
            self._queue.append(qual)
            self._inqueue.add(qual)

    def _c(self) -> Contribution:
        return self.contribs.setdefault(self.current, Contribution())

    # -- per-function evaluation ------------------------------------------

    def _process(self, qual: str) -> None:
        fn = self.index.functions[qual]
        self.current = qual
        self.processed.add(qual)
        self._module = self.index.modules[fn.module]
        env: Dict[str, Value] = {}
        for name in fn.all_params():
            kinds = frozenset(self.param_kinds.get(qual, {}).get(name, ()))
            ptype, pelem = self.resolver.param_type(fn, name)
            env[name] = Value(kinds, ptype, pelem)
            if kinds:
                self._c().tainted = True
        if fn.cls is not None and not fn.is_staticmethod:
            args = fn.node.args
            names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
            if names:
                env[names[0]] = Value(_EMPTY, fn.cls)
        before = set(self.return_kinds.get(qual, ()))
        # Two passes give intra-body ordering (use-before-def across loop
        # backedges) without a full local fixpoint.
        for _ in range(2):
            for stmt in fn.node.body:
                self._stmt(stmt, env)
        if set(self.return_kinds.get(qual, ())) - before:
            for caller in self.callers.get(qual, ()):
                self._enqueue(caller)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt, env: Dict[str, Value]) -> None:
        if isinstance(node, ast.Expr):
            self._expr(node.value, env)
        elif isinstance(node, ast.Assign):
            value = self._expr(node.value, env)
            for target in node.targets:
                self._bind(target, value, env)
        elif isinstance(node, ast.AnnAssign):
            value = (
                self._expr(node.value, env) if node.value is not None else EMPTY_VALUE
            )
            direct, elem = self.resolver.annotation_classes(
                self._module, node.annotation
            )
            merged = Value(
                value.kinds, direct or value.type, elem or value.elem, value.attr_ref
            )
            self._bind(node.target, merged, env)
        elif isinstance(node, ast.AugAssign):
            extra = self._expr(node.value, env)
            if isinstance(node.target, ast.Name):
                old = env.get(node.target.id, EMPTY_VALUE)
                env[node.target.id] = Value(
                    old.kinds | extra.kinds, old.type, old.elem, old.attr_ref
                )
            else:
                self._bind(node.target, extra, env)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._add_return(self._expr(node.value, env).kinds)
        elif isinstance(node, ast.If):
            self._expr(node.test, env)
            for child in node.body + node.orelse:
                self._stmt(child, env)
        elif isinstance(node, ast.While):
            self._expr(node.test, env)
            for child in node.body + node.orelse:
                self._stmt(child, env)
        elif isinstance(node, ast.For):
            seq = self._expr(node.iter, env)
            self._bind(node.target, Value(seq.kinds, seq.elem), env)
            for child in node.body + node.orelse:
                self._stmt(child, env)
        elif isinstance(node, ast.With):
            for item in node.items:
                ctx = self._expr(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, ctx, env)
            for child in node.body:
                self._stmt(child, env)
        elif isinstance(node, ast.Try):
            for handler in node.handlers:
                if handler.name:
                    env[handler.name] = EMPTY_VALUE
            for child in (
                node.body
                + [s for h in node.handlers for s in h.body]
                + node.orelse
                + node.finalbody
            ):
                self._stmt(child, env)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._expr(node.exc, env)
        elif isinstance(node, ast.Assert):
            self._expr(node.test, env)
            if node.msg is not None:
                self._expr(node.msg, env)
        elif isinstance(node, ast.Delete):
            pass
        # Nested function/class definitions are not analyzed (none of the
        # package's leakage paths run through closures).

    def _add_return(self, kinds: FrozenSet[str]) -> None:
        if kinds:
            self._c().returns.update(kinds)
            self.return_kinds.setdefault(self.current, set()).update(kinds)

    def _bind(self, target: ast.expr, value: Value, env: Dict[str, Value]) -> None:
        if isinstance(target, ast.Name):
            old = env.get(target.id)
            if old is None:
                env[target.id] = value
            else:
                env[target.id] = Value(
                    old.kinds | value.kinds,
                    value.type or old.type,
                    value.elem or old.elem,
                    value.attr_ref or old.attr_ref,
                    funcs=old.funcs | value.funcs,
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            if value.elems is not None and len(value.elems) == len(target.elts):
                for elt, cls in zip(target.elts, value.elems):
                    self._bind(elt, Value(value.kinds, cls), env)
            else:
                for elt in target.elts:
                    self._bind(elt, Value(value.kinds, value.elem), env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, env)
        elif isinstance(target, ast.Attribute):
            base = self._expr(target.value, env)
            if base.type is not None:
                self._write_attr(base.type, target.attr, value.kinds, target.lineno)
        elif isinstance(target, ast.Subscript):
            base = self._expr(target.value, env)
            self._expr(target.slice, env)
            if base.attr_ref is not None:
                self._write_attr(
                    base.attr_ref[0], base.attr_ref[1], value.kinds, target.lineno
                )
            elif isinstance(target.value, ast.Attribute):
                inner = self._expr(target.value.value, env)
                if inner.type is not None:
                    self._write_attr(
                        inner.type, target.value.attr, value.kinds, target.lineno
                    )
            if isinstance(target.value, ast.Name):
                self._taint_local(target.value.id, value.kinds, env)

    def _taint_local(
        self, name: str, kinds: FrozenSet[str], env: Dict[str, Value]
    ) -> None:
        """``d[k] = v`` / ``rows.append(v)`` mutate a local container in
        place: fold the written kinds into the local's binding."""
        old = env.get(name)
        if old is None or not (kinds - old.kinds):
            return
        env[name] = Value(old.kinds | kinds, old.type, old.elem, old.attr_ref)

    def _write_attr(
        self, cls: str, attr: str, kinds: FrozenSet[str], line: int
    ) -> None:
        if not kinds:
            return
        c = self._c()
        for kind in kinds:
            key = (cls, attr, kind)
            prev = c.attr_kinds.get(key)
            if prev is None or line < prev:
                c.attr_kinds[key] = line
        store = self.attr_kinds.setdefault((cls, attr), set())
        new = set(kinds) - store
        if not new:
            return
        store.update(new)
        for mro_cls in (cls, *self.resolver.mro(cls)):
            for reader in self.attr_readers.get((mro_cls, attr), ()):
                self._enqueue(reader)

    def _write_attr_funcs(
        self, cls: str, attr: str, funcs: FrozenSet[str]
    ) -> None:
        """Record function references stored into a dataclass field so a
        later ``obj.attr(...)`` call can invoke them."""
        if not funcs:
            return
        c = self._c()
        for func in funcs:
            c.attr_funcs.add((cls, attr, func))
        store = self.attr_funcs.setdefault((cls, attr), set())
        new = set(funcs) - store
        if not new:
            return
        store.update(new)
        for mro_cls in (cls, *self.resolver.mro(cls)):
            for reader in self.attr_readers.get((mro_cls, attr), ()):
                self._enqueue(reader)

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.expr, env: Dict[str, Value]) -> Value:
        value = self._expr_inner(node, env)
        if value.kinds:
            self._c().tainted = True
        return value

    def _expr_inner(self, node: ast.expr, env: Dict[str, Value]) -> Value:
        if isinstance(node, ast.Constant):
            return EMPTY_VALUE
        if isinstance(node, ast.Name):
            found = env.get(node.id)
            if found is not None:
                return found
            return self._global_value(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr(node, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.BinOp):
            left = self._expr(node.left, env)
            right = self._expr(node.right, env)
            if (
                isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
            ):
                self._note_key_format(right.kinds, node.lineno, "%-format")
            return Value(left.kinds | right.kinds)
        if isinstance(node, ast.BoolOp):
            values = [self._expr(v, env) for v in node.values]
            kinds = frozenset().union(*(v.kinds for v in values))
            vtype = next((v.type for v in values if v.type), None)
            elem = next((v.elem for v in values if v.elem), None)
            return Value(kinds, vtype, elem)
        if isinstance(node, ast.UnaryOp):
            return Value(self._expr(node.operand, env).kinds)
        if isinstance(node, ast.Compare):
            self._expr(node.left, env)
            for comp in node.comparators:
                self._expr(comp, env)
            return EMPTY_VALUE  # comparisons yield booleans, out of scope
        if isinstance(node, ast.IfExp):
            self._expr(node.test, env)
            body = self._expr(node.body, env)
            orelse = self._expr(node.orelse, env)
            return Value(
                body.kinds | orelse.kinds,
                body.type or orelse.type,
                body.elem or orelse.elem,
            )
        if isinstance(node, ast.JoinedStr):
            kinds: FrozenSet[str] = _EMPTY
            for part in node.values:
                kinds |= self._expr(part, env).kinds
            self._note_key_format(kinds, node.lineno, "f-string")
            return Value(kinds)
        if isinstance(node, ast.FormattedValue):
            return Value(self._expr(node.value, env).kinds)
        if isinstance(node, ast.Subscript):
            base = self._expr(node.value, env)
            idx = self._expr(node.slice, env)
            return Value(
                base.kinds | idx.kinds, base.elem, None, base.attr_ref
            )
        if isinstance(node, ast.Slice):
            kinds = _EMPTY
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    kinds |= self._expr(part, env).kinds
            return Value(kinds)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            kinds = _EMPTY
            for elt in node.elts:
                kinds |= self._expr(elt, env).kinds
            return Value(kinds)
        if isinstance(node, ast.Dict):
            kinds = _EMPTY
            for key in node.keys:
                if key is not None:
                    kinds |= self._expr(key, env).kinds
            for val in node.values:
                kinds |= self._expr(val, env).kinds
            return Value(kinds)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            kinds = _EMPTY
            for gen in node.generators:
                seq = self._expr(gen.iter, env)
                self._bind(gen.target, Value(seq.kinds, seq.elem), env)
                for cond in gen.ifs:
                    self._expr(cond, env)
                kinds |= seq.kinds
            if isinstance(node, ast.DictComp):
                kinds |= self._expr(node.key, env).kinds
                kinds |= self._expr(node.value, env).kinds
            else:
                kinds |= self._expr(node.elt, env).kinds
            return Value(kinds)
        if isinstance(node, ast.NamedExpr):
            value = self._expr(node.value, env)
            self._bind(node.target, value, env)
            return value
        if isinstance(node, ast.Starred):
            return self._expr(node.value, env)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._add_return(self._expr(node.value, env).kinds)
            return EMPTY_VALUE
        if isinstance(node, ast.Await):
            return self._expr(node.value, env)
        if isinstance(node, ast.Lambda):
            return EMPTY_VALUE
        return EMPTY_VALUE

    def _note_key_format(
        self, kinds: FrozenSet[str], line: int, context: str
    ) -> None:
        """Record key material reaching a formatting/display expression."""
        for kind in kinds & self.key_kinds:
            self._c().key_format_events.add((line, context, kind))

    def _global_value(self, name: str) -> Value:
        """Type a module-level constant, local or imported (e.g. the shared
        ``NO_OP_INSTRUMENTATION`` singleton), or a function reference."""
        fn_local = self._module.functions.get(name)
        if fn_local is not None:
            return Value(funcs=frozenset((fn_local,)))
        const = self._module.constants.get(name)
        defmod = self._module
        if const is None and name in self._module.imports:
            qual = self.resolver.canonical(self._module.imports[name])
            if qual in self.index.functions:
                return Value(funcs=frozenset((qual,)))
            if qual in self.index.classes:
                return EMPTY_VALUE
            prefix, _, leaf = qual.rpartition(".")
            other = self.index.modules.get(prefix)
            if other is not None:
                const = other.constants.get(leaf)
                defmod = other
        if isinstance(const, ast.Call):
            dotted = _dotted_name(const.func)
            if dotted is not None:
                resolved = self.resolver.resolve_dotted(defmod, dotted)
                if resolved in self.index.classes:
                    return Value(_EMPTY, resolved)
        return EMPTY_VALUE

    def _is_artifact(self, cls: str) -> bool:
        return cls in self.artifacts or any(
            c in self.artifacts for c in self.resolver.mro(cls)
        )

    def _attr(self, node: ast.Attribute, env: Dict[str, Value]) -> Value:
        base = self._expr(node.value, env)
        if base.type is None:
            # Unknown receiver: conservatively alias the object's own kinds.
            return Value(base.kinds)
        if self._is_artifact(base.type):
            # Artifact classes are flow endpoints: the leak is accounted
            # when data crosses INTO them; reading one back is the
            # attacker's move (the forensics layer), not a new leak.
            method = self.resolver.method(base.type, node.attr)
            if method is not None:
                if method.is_property:
                    read = self._property_read(method)
                    return Value(_EMPTY, read.type, read.elem)
                return EMPTY_VALUE
            return Value(
                _EMPTY,
                self.resolver.attr_type(base.type, node.attr),
                self.resolver.attr_elem(base.type, node.attr),
            )
        attr = node.attr
        method = self.resolver.method(base.type, attr)
        if method is not None:
            if method.is_property:
                return self._property_read(method)
            return EMPTY_VALUE  # bound method object; calls resolve elsewhere
        # Data attrs inherit the object's own kinds (minus key taints) on
        # top of the attribute summary: ``ashe_ct.value`` is still the
        # ciphertext even when the field summary only saw PRF outputs.
        kinds: Set[str] = set(base.kinds - self.key_kinds)
        funcs: Set[str] = set()
        attr_ref: Optional[Tuple[str, str]] = None
        c = self._c()
        for cls in self.resolver.mro(base.type):
            key = (cls, attr)
            self.attr_readers.setdefault(key, set()).add(self.current)
            c.attr_reads.add(key)
            kinds.update(self.attr_kinds.get(key, ()))
            funcs.update(self.attr_funcs.get(key, ()))
            if attr_ref is None and (
                key in self.resolver.attr_types
                or key in self.resolver.attr_elems
                or key in self.attr_kinds
            ):
                attr_ref = key
        return Value(
            frozenset(kinds),
            self.resolver.attr_type(base.type, attr),
            self.resolver.attr_elem(base.type, attr),
            attr_ref or (base.type, attr),
            funcs=frozenset(funcs),
        )

    def _property_read(self, method: FunctionInfo) -> Value:
        self.callers.setdefault(method.qualname, set()).add(self.current)
        self._c().calls.add(method.qualname)
        rtype, relem = self.resolver.return_type(method)
        taint = self.return_sources.get(method.qualname)
        if taint is not None:
            self._note_source(method.qualname, taint, method.node.lineno)
            return Value(frozenset((taint,)), rtype, relem)
        if method.qualname in self.sanitizers:
            return Value(_EMPTY, rtype, relem)
        return Value(
            frozenset(self.return_kinds.get(method.qualname, ())),
            rtype,
            relem,
            elems=self.resolver.return_positions(method),
        )

    def _note_source(self, source_qual: str, taint: str, line: int) -> None:
        c = self._c()
        c.source_invocations.add((source_qual, taint, line))
        prev = c.source_notes.get(taint)
        if prev is None or (line, source_qual) < prev:
            c.source_notes[taint] = (line, source_qual)

    def _duration_source_name(
        self, func: ast.expr, env: Dict[str, Value]
    ) -> Optional[str]:
        """Match a call target against the declared duration sources.

        Returns the absolute dotted name (import aliases expanded) when the
        call is ``time.perf_counter()``-style and declared, else ``None``.
        """
        dotted: Optional[str] = None
        if isinstance(func, ast.Name):
            dotted = func.id
        elif isinstance(func, ast.Attribute):
            dotted = _dotted_name(func)
        if not dotted:
            return None
        root = dotted.split(".")[0]
        if root in env:
            return None
        if self._module is not None:
            expanded = self._module.imports.get(root)
            if expanded is not None:
                dotted = expanded + dotted[len(root):]
        return dotted if dotted in self.volume_duration_sources else None

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call, env: Dict[str, Value]) -> Value:
        fn = self.index.functions[self.current]
        target: Optional[str] = None
        receiver: Optional[Value] = None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _CLEAN_BUILTINS and func.id not in env:
                clean_kinds: FrozenSet[str] = _EMPTY
                for arg in node.args:
                    clean_kinds |= self._expr(arg, env).kinds
                for kw in node.keywords:
                    clean_kinds |= self._expr(kw.value, env).kinds
                # Volume domain: the *size* of tainted data is itself a
                # leak channel (Poddar et al.) — ``len(rows)`` replaces the
                # payload kinds with the length kind rather than dropping
                # them.
                if (
                    func.id == "len"
                    and self.volume_length_kind is not None
                    and clean_kinds - self.volume_kind_set
                ):
                    self._note_source(
                        "len()", self.volume_length_kind, node.lineno
                    )
                    return Value(frozenset((self.volume_length_kind,)))
                return EMPTY_VALUE
            if func.id not in env:
                target = self.resolver.resolve_dotted(self._module, func.id)
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and fn.cls is not None
            ):
                # super().m(...) → first base class providing m.
                info = self.index.classes.get(fn.cls)
                for base in info.bases if info else ():
                    method = self.resolver.method(base, func.attr)
                    if method is not None:
                        target = method.qualname
                        break
            else:
                dotted = _dotted_name(func)
                root = dotted.split(".")[0] if dotted else None
                if dotted and root not in env:
                    target = self.resolver.resolve_dotted(self._module, dotted)
                if target is None:
                    receiver = self._expr(func.value, env)
                    if receiver.type is not None:
                        method = self.resolver.method(receiver.type, func.attr)
                        if method is not None:
                            target = method.qualname
        else:
            self._expr(func, env)

        # Declared wall-clock sources (``time.perf_counter`` and friends)
        # live outside the analyzed package, so they are matched here by
        # dotted name once normal resolution has failed.
        if target is None and self.volume_duration_kind is not None:
            clock = self._duration_source_name(func, env)
            if clock is not None:
                for arg in node.args:
                    self._expr(arg, env)
                for kw in node.keywords:
                    self._expr(kw.value, env)
                self._note_source(
                    clock, self.volume_duration_kind, node.lineno
                )
                return Value(frozenset((self.volume_duration_kind,)))

        # First-class function references: ``provider.capture(server)`` or a
        # local ``fn(server)`` where ``fn`` holds functions recorded through
        # dataclass fields / module globals.
        callee_funcs: FrozenSet[str] = _EMPTY
        if target is None:
            if isinstance(func, ast.Name):
                bound = env.get(func.id)
                if bound is not None:
                    callee_funcs = bound.funcs
                else:
                    callee_funcs = self._global_value(func.id).funcs
            elif (
                isinstance(func, ast.Attribute)
                and receiver is not None
                and receiver.type is not None
            ):
                callee_funcs = self._attr(func, env).funcs

        arg_values = [self._expr(a, env) for a in node.args]
        kw_values = [(kw.arg, self._expr(kw.value, env)) for kw in node.keywords]
        all_kinds: FrozenSet[str] = _EMPTY
        for v in arg_values:
            all_kinds |= v.kinds
        for _, v in kw_values:
            all_kinds |= v.kinds

        if target is None and callee_funcs:
            merged: Set[str] = set()
            mtype: Optional[str] = None
            melem: Optional[str] = None
            for fq in sorted(callee_funcs):
                stored = self._callable_function(fq)
                if stored is None:
                    continue
                value = self._invoke(node, stored, arg_values, kw_values, all_kinds)
                merged.update(value.kinds)
                mtype = mtype or value.type
                melem = melem or value.elem
            return Value(frozenset(merged), mtype, melem)

        if target in self.index.classes:
            return self._construct(node, target, arg_values, kw_values, all_kinds)
        if target in self.index.functions:
            callee = self.index.functions[target]
            result = self._invoke(node, callee, arg_values, kw_values, all_kinds)
            # A method's result inherits its receiver object's kinds (minus
            # key taints): ``ore_ct.to_bytes()`` is still the ciphertext.
            # Declared sources, sanitizers, and artifact methods are exempt
            # — their returns are fixed by declaration.
            if (
                receiver is not None
                and target not in self.return_sources
                and target not in self.sanitizers
                and not (callee.cls is not None and self._is_artifact(callee.cls))
            ):
                carried = receiver.kinds - self.key_kinds
                if carried - result.kinds:
                    result = Value(
                        result.kinds | carried,
                        result.type,
                        result.elem,
                        result.attr_ref,
                    )
            return result

        # Unresolved call: propagate conservatively; recognize container
        # mutators so ring-buffer/history writes reach attribute summaries.
        result_kinds = all_kinds | (receiver.kinds if receiver else _EMPTY)
        attr_ref = None
        if isinstance(func, ast.Attribute) and receiver is not None:
            if func.attr in _MUTATORS:
                if receiver.attr_ref is not None:
                    self._write_attr(
                        receiver.attr_ref[0],
                        receiver.attr_ref[1],
                        all_kinds,
                        node.lineno,
                    )
                if isinstance(func.value, ast.Name):
                    self._taint_local(func.value.id, all_kinds, env)
            if receiver.attr_ref is not None and func.attr in _ACCESSORS:
                attr_ref = receiver.attr_ref
            if func.attr == "format" or func.attr in _LOG_METHODS:
                self._note_key_format(all_kinds, node.lineno, f".{func.attr}()")
        if isinstance(func, ast.Name) and func.id in ("repr", "ascii"):
            self._note_key_format(all_kinds, node.lineno, f"{func.id}()")
        return Value(result_kinds, None, None, attr_ref)

    def _construct(
        self,
        node: ast.Call,
        cls_qual: str,
        arg_values: List[Value],
        kw_values: List[Tuple[Optional[str], Value]],
        all_kinds: FrozenSet[str],
    ) -> Value:
        info = self.index.classes[cls_qual]
        init = self.resolver.method(cls_qual, "__init__")
        if init is not None:
            self._invoke(node, init, arg_values, kw_values, all_kinds)
        elif info.is_record:
            field_names = [name for name, _ in info.fields]
            for i, value in enumerate(arg_values):
                if i < len(field_names) and value.kinds:
                    self._write_attr(
                        cls_qual, field_names[i], value.kinds, node.lineno
                    )
                if i < len(field_names) and value.funcs:
                    self._write_attr_funcs(cls_qual, field_names[i], value.funcs)
            for name, value in kw_values:
                if not value.kinds and not value.funcs:
                    continue
                if name is None:  # **kwargs: may populate any field
                    for fname in field_names:
                        self._write_attr(cls_qual, fname, value.kinds, node.lineno)
                elif name in field_names:
                    if value.kinds:
                        self._write_attr(cls_qual, name, value.kinds, node.lineno)
                    if value.funcs:
                        self._write_attr_funcs(cls_qual, name, value.funcs)
        sink = self.sinks.get(cls_qual)
        if sink is not None:
            self._hit_sink(sink, cls_qual, all_kinds, node.lineno)
        taint = self.return_sources.get(cls_qual)
        if taint is not None:
            self._note_source(cls_qual, taint, node.lineno)
            return Value(frozenset((taint,)), cls_qual)
        if self._is_artifact(cls_qual):
            return Value(_EMPTY, cls_qual)
        return Value(all_kinds, cls_qual)

    def _record_nonce_args(
        self, node: ast.Call, callee: FunctionInfo
    ) -> None:
        """Record constant-valued nonce/IV arguments at this call site."""
        params = set(callee.all_params()) & self.nonce_params
        if not params:
            return
        positional = callee.positional_params()

        def classify(expr: ast.expr) -> Optional[Tuple[str, str]]:
            if isinstance(expr, ast.Constant) and not isinstance(
                expr.value, bool
            ) and expr.value is not None:
                return ("const", repr(expr.value))
            if isinstance(expr, ast.Name):
                const = self._module.constants.get(expr.id)
                if isinstance(const, ast.Constant) and const.value is not None:
                    return ("global", f"{expr.id}={const.value!r}")
            return None

        def note(param: str, expr: ast.expr) -> None:
            shape = classify(expr)
            if shape is not None:
                self._c().nonce_args.add(
                    (node.lineno, callee.qualname, param, shape[0], shape[1])
                )

        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(positional) and positional[i] in params:
                note(positional[i], arg)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in params:
                note(kw.arg, kw.value)

    def _invoke(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_values: List[Value],
        kw_values: List[Tuple[Optional[str], Value]],
        all_kinds: FrozenSet[str],
    ) -> Value:
        qual = callee.qualname
        self.callers.setdefault(qual, set()).add(self.current)
        c = self._c()
        c.calls.add(qual)
        if qual in self.release_points:
            c.release_calls.add((node.lineno, qual))
        self._record_nonce_args(node, callee)

        binding: Dict[str, FrozenSet[str]] = {}
        positional = callee.positional_params()
        vararg = callee.vararg
        for i, value in enumerate(arg_values):
            if i < len(positional):
                binding[positional[i]] = binding.get(positional[i], _EMPTY) | value.kinds
            elif vararg is not None:
                binding[vararg] = binding.get(vararg, _EMPTY) | value.kinds
        known = set(callee.all_params())
        for name, value in kw_values:
            if name is None:  # **kwargs call site: any parameter may receive it
                for pname in known:
                    binding[pname] = binding.get(pname, _EMPTY) | value.kinds
            elif name in known:
                binding[name] = binding.get(name, _EMPTY) | value.kinds
            elif callee.kwarg is not None:
                binding[callee.kwarg] = (
                    binding.get(callee.kwarg, _EMPTY) | value.kinds
                )
        changed = False
        for pname, kinds in binding.items():
            if not kinds:
                continue
            for kind in kinds:
                key = (qual, pname, kind)
                prev = c.param_kinds.get(key)
                if prev is None or node.lineno < prev:
                    c.param_kinds[key] = node.lineno
            store = self.param_kinds.setdefault(qual, {}).setdefault(pname, set())
            new = kinds - store
            if new:
                store.update(new)
                changed = True
        if changed:
            self._enqueue(qual)

        sink = self.sinks.get(qual)
        if sink is not None:
            if sink.params:
                observed: FrozenSet[str] = _EMPTY
                for pname in sink.params:
                    observed |= binding.get(pname, _EMPTY)
            else:
                observed = all_kinds
            self._hit_sink(sink, qual, observed, node.lineno)

        taint = self.return_sources.get(qual)
        if taint is not None:
            self._note_source(qual, taint, node.lineno)
            rtype, relem = self.resolver.return_type(callee)
            return Value(frozenset((taint,)), rtype, relem)
        if qual in self.sanitizers or (
            callee.cls is not None and self._is_artifact(callee.cls)
        ):
            rtype, relem = self.resolver.return_type(callee)
            return Value(_EMPTY, rtype, relem)
        rtype, relem = self.resolver.return_type(callee)
        return Value(
            frozenset(self.return_kinds.get(qual, ())),
            rtype,
            relem,
            elems=self.resolver.return_positions(callee),
        )

    # -- sinks and witnesses ----------------------------------------------

    def _hit_sink(
        self, sink: SinkSpec, sink_qual: str, kinds: FrozenSet[str], line: int
    ) -> None:
        c = self._c()
        for kind in kinds:
            key = (kind, sink.sink)
            prev = c.sink_hits.get(key)
            if prev is None or line < prev[0]:
                c.sink_hits[key] = (line, sink_qual, sink.category)

    def _witness(
        self, fn_qual: str, kind: str, line: int, sink_qual: str
    ) -> List[str]:
        steps = [f"{fn_qual}:{line} passes {kind} into {sink_qual}"]
        current = fn_qual
        seen = set()
        for _ in range(12):
            if current in seen:
                break
            seen.add(current)
            origin = self.source_calls.get((current, kind))
            if origin is not None:
                steps.append(f"{current}: {origin}")
                break
            fn = self.index.functions.get(current)
            next_fn = None
            if fn is not None:
                for pname in fn.all_params():
                    hop = self.param_origin.get((current, pname, kind))
                    if hop is not None:
                        steps.append(
                            f"{current}: parameter {pname!r} carries {kind} "
                            f"(from {hop[0]}:{hop[1]})"
                        )
                        next_fn = hop[0]
                        break
            if next_fn is None:
                for cls, attr in sorted(self.fn_attr_reads.get(current, ())):
                    hop = self.attr_origin.get((cls, attr, kind))
                    if hop is not None:
                        short_cls = cls.rsplit(".", 1)[-1]
                        steps.append(
                            f"{current}: reads {short_cls}.{attr} carrying "
                            f"{kind} (written by {hop[0]}:{hop[1]})"
                        )
                        next_fn = hop[0]
                        break
            if next_fn is None or next_fn == current:
                break
            current = next_fn
        return steps
