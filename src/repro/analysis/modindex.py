"""Package indexing: parse every module and catalogue its definitions.

The index is the analyzer's symbol table. It records, per module, the
import alias map (with relative imports resolved to absolute dotted names),
top-level functions, classes (with their methods, dataclass fields, and
decorators), and module-level constant assignments. Resolution of dotted
names *across* modules — including ``__init__`` re-exports — lives in
:mod:`.resolve`; this module only parses and catalogues.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import AnalysisError

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _decorator_names(node) -> Tuple[str, ...]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return tuple(names)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    node: FunctionNode
    cls: Optional[str] = None  # enclosing class qualname, if a method
    decorators: Tuple[str, ...] = ()

    @property
    def is_property(self) -> bool:
        return "property" in self.decorators or "cached_property" in self.decorators

    @property
    def is_staticmethod(self) -> bool:
        return "staticmethod" in self.decorators

    @property
    def is_classmethod(self) -> bool:
        return "classmethod" in self.decorators

    def positional_params(self) -> List[str]:
        """Positional parameter names, with the implicit self/cls dropped."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if self.cls is not None and not self.is_staticmethod and names:
            names = names[1:]
        return names

    def keyword_params(self) -> List[str]:
        return [a.arg for a in self.node.args.kwonlyargs]

    @property
    def vararg(self) -> Optional[str]:
        return self.node.args.vararg.arg if self.node.args.vararg else None

    @property
    def kwarg(self) -> Optional[str]:
        return self.node.args.kwarg.arg if self.node.args.kwarg else None

    def all_params(self) -> List[str]:
        names = self.positional_params() + self.keyword_params()
        if self.vararg:
            names.append(self.vararg)
        if self.kwarg:
            names.append(self.kwarg)
        return names

    def param_annotation(self, name: str) -> Optional[ast.expr]:
        args = self.node.args
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if a.arg == name:
                return a.annotation
        return None


@dataclass
class ClassInfo:
    """One class definition (methods, bases, dataclass fields)."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    base_exprs: List[ast.expr] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)  # resolved by Resolver
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    decorators: Tuple[str, ...] = ()
    fields: List[Tuple[str, Optional[ast.expr]]] = field(default_factory=list)

    @property
    def is_record(self) -> bool:
        """A dataclass or ``NamedTuple``: its constructor's parameters are
        its fields, in declaration order."""
        return "dataclass" in self.decorators or any(
            (isinstance(base, ast.Name) and base.id == "NamedTuple")
            or (isinstance(base, ast.Attribute) and base.attr == "NamedTuple")
            for base in self.base_exprs
        )

    @property
    def has_init(self) -> bool:
        return "__init__" in self.methods


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    path: Path
    node: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, str] = field(default_factory=dict)
    constants: Dict[str, ast.expr] = field(default_factory=dict)
    is_package: bool = False


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute dotted prefix for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.name.split(".")
    if not module.is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        parts = parts[: len(parts) - drop]
    if node.module:
        parts.append(node.module)
    return ".".join(parts)


def module_files(package_dir, package: str) -> List[Tuple[str, Path, bool]]:
    """(module name, path, is_package) for every module, in sorted-path order.

    The single source of truth for module enumeration: :meth:`PackageIndex.build`
    parses exactly this list, and the incremental driver hashes exactly this
    list — so the cache key and the analyzed tree can never disagree.
    """
    package_dir = Path(package_dir)
    if not package_dir.is_dir():
        raise AnalysisError(f"package directory not found: {package_dir}")
    files: List[Tuple[str, Path, bool]] = []
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir)
        parts = list(rel.parts)
        is_package = parts[-1] == "__init__.py"
        if is_package:
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]
        files.append((".".join([package] + parts), path, is_package))
    return files


def _parse_chunk(
    package: str, items: List[Tuple[str, str, bool]]
) -> "PackageIndex":
    """Process-pool worker: parse one slice of modules into a mini index.

    Whole ``PackageIndex`` objects cross the pickle boundary so that AST
    node references stay shared between a module's ``ModuleInfo`` and its
    ``FunctionInfo``/``ClassInfo`` entries (pickle preserves object identity
    within one payload).
    """
    index = PackageIndex(package)
    for name, path, is_package in items:
        index._add_module(name, Path(path), is_package)
    return index


#: Below this many modules a process pool costs more than it saves: the
#: workers ship whole parsed ASTs back through pickle, and at ~150 modules
#: that serialization alone exceeds the serial parse time (~3x slower,
#: measured). Auto mode therefore stays serial until trees get far larger;
#: an explicit ``jobs>1`` always gets the pool.
_PARALLEL_THRESHOLD = 512


class PackageIndex:
    """Every module, class, and function of one analyzed package."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    @classmethod
    def build(cls, package_dir, package: str, jobs: int = 1) -> "PackageIndex":
        """Parse ``package_dir`` (the directory *of* the package) recursively.

        ``jobs`` > 1 fans parsing out over a process pool; ``jobs`` == 1
        forces the serial path; ``jobs`` == 0 picks automatically (serial
        for small trees). Results are identical either way: chunks are
        contiguous slices of the sorted file list, merged in order, so the
        index's insertion order matches the serial build exactly.
        """
        files = module_files(package_dir, package)
        if not files:
            raise AnalysisError(f"no Python modules found under {package_dir}")
        if jobs == 0:
            import os

            cpus = os.cpu_count() or 1
            jobs = min(4, cpus) if len(files) >= _PARALLEL_THRESHOLD else 1
        if jobs > 1 and len(files) >= 2:
            try:
                return cls._build_parallel(package, files, jobs)
            except Exception:
                pass  # pool unavailable (sandbox, no sem) — fall back serial
        index = cls(package)
        for name, path, is_package in files:
            index._add_module(name, path, is_package)
        return index

    @classmethod
    def _build_parallel(
        cls, package: str, files: List[Tuple[str, Path, bool]], jobs: int
    ) -> "PackageIndex":
        from concurrent.futures import ProcessPoolExecutor

        jobs = min(jobs, len(files))
        chunk_size = (len(files) + jobs - 1) // jobs
        chunks = [
            [(name, str(path), is_pkg) for name, path, is_pkg in
             files[i : i + chunk_size]]
            for i in range(0, len(files), chunk_size)
        ]
        index = cls(package)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_parse_chunk, [package] * len(chunks), chunks):
                index.modules.update(part.modules)
                index.classes.update(part.classes)
                index.functions.update(part.functions)
        return index

    def _add_module(self, name: str, path: Path, is_package: bool) -> None:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        module = ModuleInfo(
            name=name, path=path, node=tree, is_package=is_package
        )
        self.modules[name] = module
        # Imports can hide inside ``if TYPE_CHECKING:`` blocks and function
        # bodies (lazy imports breaking cycles) — walk the whole tree.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.imports[local] = alias.asname and alias.name or local
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                prefix = _resolve_relative(module, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = (
                        f"{prefix}.{alias.name}" if prefix else alias.name
                    )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    module.constants[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    module.constants[node.target.id] = node.value

    def _add_function(
        self, module: ModuleInfo, node: FunctionNode, cls: Optional[str]
    ) -> Optional[FunctionInfo]:
        if cls is None:
            qualname = f"{module.name}.{node.name}"
        else:
            qualname = f"{cls}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            node=node,
            cls=cls,
            decorators=_decorator_names(node),
        )
        # Later definitions win (e.g. @overload stacks), matching runtime.
        self.functions[qualname] = info
        if cls is None:
            module.functions[node.name] = qualname
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            node=node,
            base_exprs=list(node.bases),
            decorators=_decorator_names(node),
        )
        self.classes[qualname] = info
        module.classes[node.name] = qualname
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(module, child, cls=qualname)
                if fn is not None:
                    info.methods[child.name] = fn.qualname
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                # Class-level annotated names double as dataclass fields;
                # skip ClassVar (never instance state).
                ann = child.annotation
                text = ast.dump(ann)
                if "ClassVar" not in text:
                    info.fields.append((child.target.id, ann))
