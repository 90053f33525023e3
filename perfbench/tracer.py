"""Outside-in per-layer tracing: timing wrappers around public calls.

The tracer never edits the program. It replaces public functions and
methods of the ``repro`` modules with wrappers that time each call, and
keeps a stack of open spans so every call's *self* time (its duration
minus the time its traced children cover) is charged to its own layer.
A function that callers imported with ``from ... import`` is rebound in
every loaded ``repro`` module that holds it, under whatever name.

Statement layers (SQL, memory, server, engine, storage, WAL) are charged
only inside a statement span, so a forensic reader decoding rows after
the run does not pollute the per-statement figures; pipeline layers
(snapshot, forensics, attacks, EDB) are charged wherever they run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, qualified name) for every statement-path call timed.
STATEMENT_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.tokenize", "repro.sql.lexer", "tokenize"),
    ("sql.parse", "repro.sql.parser", "parse"),
    ("sql.digest", "repro.sql.digest", "digest"),
    ("memory.spill", "repro.server.session", "Session.begin_statement"),
    ("memory.spill", "repro.server.session", "Session.end_statement"),
    ("memory.spill", "repro.memory.heap", "BumpArena.alloc"),
    ("server.perf_schema", "repro.server.performance_schema",
     "PerformanceSchema.record_statement"),
    ("server.query_log", "repro.engine.query_logs", "GeneralQueryLog.log"),
    ("server.query_log", "repro.engine.query_logs", "SlowQueryLog.log"),
    ("server.executor", "repro.server.executor", "filter_rows"),
    ("server.executor", "repro.server.executor", "project"),
    ("engine.insert", "repro.engine.engine", "StorageEngine.insert"),
    ("engine.get", "repro.engine.engine", "StorageEngine.get"),
    ("engine.range", "repro.engine.engine", "StorageEngine.range"),
    ("engine.full_scan", "repro.engine.engine", "StorageEngine.full_scan"),
    ("engine.commit", "repro.engine.engine", "StorageEngine.commit"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager.check_write"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager.record_write"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager.read_row"),
    ("engine.binlog", "repro.engine.binlog", "Binlog.log"),
    ("storage.btree_get", "repro.storage.paged.table", "PagedTable.get"),
    ("storage.btree_get", "repro.storage.btree", "BTree.get"),
    ("storage.btree_insert", "repro.storage.paged.table", "PagedTable.insert"),
    ("storage.btree_insert", "repro.storage.btree", "BTree.insert"),
    ("storage.decode_row", "repro.storage.record", "decode_row"),
    ("storage.encode_row", "repro.storage.record", "encode_row"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_redo"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_undo"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_clr"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_begin"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_commit"),
    ("wal.append", "repro.wal.log_manager", "LogManager.append_abort"),
    ("wal.flush", "repro.wal.log_manager", "LogManager.flush"),
)

#: Statement roots: the front end's dispatch and the server's execute.
FRONTEND = ("server.frontend", "repro.server.frontend", "ServerFrontend.dispatch_one")
EXECUTE = ("server.execute", "repro.server.server", "MySQLServer.execute")

#: Pipeline layers: every public function of these packages.
PIPELINE_PACKAGES: Tuple[Tuple[str, str], ...] = (
    ("forensics.reader", "repro.forensics"),
    ("attacks.inference", "repro.attacks"),
    ("edb.client", "repro.edb"),
)
CAPTURE = ("snapshot.capture", "repro.snapshot.capture", "capture")

#: Layers whose individual call durations are kept (for percentiles).
SAMPLED = frozenset({"wal.flush"})


class Tracer:
    """Span stack plus per-layer self time, call counts and samples."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self._stack: List[float] = []  # child time covered, per open span
        self._in_statement = 0
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Statement roots seen, and (rows examined, rows sent) totals.
        self.statements = 0
        self.rows_examined = 0
        self.rows_sent = 0
        #: Pages on the AccessPath of every engine point lookup.
        self.lookup_pages = 0

    def reset(self) -> None:
        """Drop everything recorded so far (spans must all be closed)."""
        if self._stack:
            raise RuntimeError("tracer reset with open spans")
        self.self_time.clear()
        self.calls.clear()
        for samples in self.samples.values():
            samples.clear()  # wrappers hold these lists
        self.statements = self.rows_examined = self.rows_sent = 0
        self.lookup_pages = 0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, statement_layer: bool,
              root: bool = False, on_result=None) -> Callable:
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        keep = layer in SAMPLED
        samples = self.samples[layer] if keep else None
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if statement_layer and not root and not tracer._in_statement:
                return fn(*args, **kwargs)
            if root:
                tracer._in_statement += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                self_time[layer] += elapsed - covered
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                if keep:
                    samples.append(elapsed)
                if root:
                    tracer._in_statement -= 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` wherever a ``repro`` module imported it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def patch(self, layer: str, module_name: str, qualname: str,
              statement_layer: bool = True, root: bool = False,
              on_result=None) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, statement_layer, root, on_result)
            setattr(owner, attr, wrapper)
        else:
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, statement_layer, root, on_result)
            self._rebind_everywhere(original, wrapper)

    def patch_package(self, layer: str, package_name: str) -> None:
        """Wrap every public function and public method defined in a package."""
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            module = importlib.import_module(info.name)
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != info.name:
                    continue
                if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    self._rebind_everywhere(
                        value, self._wrap(layer, value, statement_layer=False)
                    )
                elif inspect.isclass(value):
                    for attr, member in list(vars(value).items()):
                        if (attr.startswith("_") or not inspect.isfunction(member)
                                or inspect.isgeneratorfunction(member)):
                            continue
                        setattr(value, attr,
                                self._wrap(layer, member, statement_layer=False))

    def install_all(self, frontend_root: bool) -> None:
        """Patch every layer. ``frontend_root``: statements enter through
        ``ServerFrontend.dispatch_one`` (else through ``MySQLServer.execute``)."""
        for layer, module_name, qualname in STATEMENT_LAYERS:
            on_result = self._count_lookup if layer == "engine.get" else None
            self.patch(layer, module_name, qualname, on_result=on_result)
        if frontend_root:
            self.patch(*FRONTEND, root=True, on_result=self._count_dispatch)
            self.patch(*EXECUTE, on_result=self._count_rows)
        else:
            self.patch(*EXECUTE, root=True, on_result=self._count_statement)
        for layer, package_name in PIPELINE_PACKAGES:
            self.patch_package(layer, package_name)
        self.patch(*CAPTURE, statement_layer=False)

    # -- result hooks --------------------------------------------------------

    def _count_lookup(self, result) -> None:
        self.lookup_pages += len(result[1].page_ids)

    def _count_rows(self, result) -> None:
        self.rows_examined += result.rows_examined
        self.rows_sent += result.rows_sent

    def _count_dispatch(self, completed) -> None:
        if completed is not None:
            self.statements += 1

    def _count_statement(self, result) -> None:
        self.statements += 1
        self._count_rows(result)

    # -- reading -------------------------------------------------------------

    def per_statement_us(self, layer: str) -> float:
        return 1e6 * self.self_time.get(layer, 0.0) / max(self.statements, 1)

    def seconds(self, layer: str) -> float:
        return self.self_time.get(layer, 0.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
