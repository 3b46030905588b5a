"""Static module index: the import graph and definition table.

Everything the architecture rules consume is extracted here, once, by
a pure-AST walk over the tree — no module is ever imported, so the
analyzer works on broken trees, costs milliseconds, and stays
zero-dependency (stdlib ``ast`` only, like reprolint).

Three artifacts per module:

* :class:`ImportEdge` records — every ``import``/``from .. import``
  of an in-tree module, tagged ``eager`` (module scope, executed at
  import time) vs lazy (function scope) and ``typecheck`` (inside an
  ``if TYPE_CHECKING:`` block).  The layer contract and cycle
  detection run on *eager, non-typecheck* edges — the ones that can
  actually deadlock an import or erode layering at runtime;
* :class:`DefInfo` records — top-level functions, classes (with
  signatures, bases, dataclass fields, public-method signatures),
  constants and import aliases, the raw material of the public-API
  surface snapshot;
* the statically extracted ``__all__`` list, when the module declares
  one as a plain literal.

:func:`resolve_export` follows alias chains (``repro/__init__``
re-exporting from ``repro.core`` re-exporting from
``repro.core.optimizer``) to the defining module, so the API surface
locks *definitions*, not re-export plumbing.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DefInfo",
    "ImportEdge",
    "ModuleInfo",
    "TreeIndex",
    "UsageIndex",
    "build_tree_index",
    "build_usage_index",
    "format_signature",
    "resolve_export",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True)
class ImportEdge:
    """One static import of an in-tree module.

    ``name`` is the imported symbol for ``from target import name``
    and ``""`` for a plain ``import target``.  ``alias`` is the local
    binding created by the import.
    """

    source: str
    target: str
    name: str
    alias: str
    line: int
    eager: bool
    typecheck: bool


@dataclass(frozen=True)
class DefInfo:
    """One top-level definition (or import alias) in a module.

    ``kind`` is ``"function"``, ``"class"``, ``"constant"``,
    ``"alias"`` (an imported name), ``"module"`` (a submodule reached
    through a package) or ``"opaque"`` (resolution left the tree).
    """

    kind: str
    module: str
    name: str
    line: int = 0
    signature: str = ""
    bases: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    is_dataclass: bool = False
    #: Decorator names on the def (``register_scenario``,
    #: ``dataclass``, ...).  The dead-code rules treat registration
    #: decorators as consumers: a ``@register_*``-decorated def is
    #: wired in even when nothing imports it by name.
    decorators: Tuple[str, ...] = ()
    alias_target: Tuple[str, str] = ("", "")

    def surface_dict(self) -> Dict[str, object]:
        """The byte-stable snapshot record for the API-surface lock."""
        record: Dict[str, object] = {
            "kind": self.kind,
            "defined_in": self.module,
        }
        if self.kind == "function":
            record["signature"] = self.signature
        elif self.kind == "class":
            record["bases"] = list(self.bases)
            record["methods"] = list(self.methods)
            if self.is_dataclass:
                record["dataclass_fields"] = list(self.fields)
        return record


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed module."""

    name: str
    path: str
    source: str
    tree: ast.Module
    package: str
    is_init: bool
    exports: Optional[List[str]] = None
    defs: Dict[str, DefInfo] = field(default_factory=dict)
    edges: List[ImportEdge] = field(default_factory=list)


@dataclass
class TreeIndex:
    """The parsed tree: module table plus derived lookups."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    root_package: str = ""

    def packages(self) -> List[str]:
        """Top-level layering nodes present in the tree, sorted."""
        return sorted({m.package for m in self.modules.values()})

    def eager_edges(self) -> Iterator[ImportEdge]:
        """Import-time edges: module scope, outside TYPE_CHECKING."""
        for info in self.modules.values():
            for edge in info.edges:
                if edge.eager and not edge.typecheck:
                    yield edge

    def all_edges(self) -> Iterator[ImportEdge]:
        """Every recorded edge, eager and lazy alike."""
        for info in self.modules.values():
            yield from info.edges


@dataclass
class UsageIndex:
    """Name usage harvested from the tree plus external usage roots.

    ``imported`` holds ``(module, name)`` pairs as written at the
    import site (pre-resolution); ``imported_modules`` the modules
    imported whole; ``attributes`` ``(module, attr)`` accesses through
    a module alias (``import repro.sim as s; s.run`` records
    ``("repro.sim", "run")``).  ``by_source`` maps each *importing*
    package to the pairs it imports, so "used outside the defining
    package" is answerable.
    """

    imported: Set[Tuple[str, str]] = field(default_factory=set)
    imported_modules: Set[str] = field(default_factory=set)
    attributes: Set[Tuple[str, str]] = field(default_factory=set)
    by_source: Dict[Tuple[str, str], Set[str]] = field(default_factory=dict)

    def record_import(self, module: str, name: str, source_pkg: str) -> None:
        self.imported.add((module, name))
        self.by_source.setdefault((module, name), set()).add(source_pkg)


# ------------------------------------------------------------ extraction


def format_signature(args: ast.arguments, returns: Optional[ast.expr]) -> str:
    """Deterministic one-line signature text for a function def."""
    parts: List[str] = []

    def fmt(arg: ast.arg, default: Optional[ast.expr]) -> str:
        text = arg.arg
        if arg.annotation is not None:
            text += f": {ast.unparse(arg.annotation)}"
        if default is not None:
            sep = " = " if arg.annotation is not None else "="
            text += f"{sep}{ast.unparse(default)}"
        return text

    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = (
        [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    )
    for arg, default in zip(positional[: len(args.posonlyargs)], defaults):
        parts.append(fmt(arg, default))
    if args.posonlyargs:
        parts.append("/")
    for arg, default in zip(
        positional[len(args.posonlyargs):], defaults[len(args.posonlyargs):]
    ):
        parts.append(fmt(arg, default))
    if args.vararg is not None:
        parts.append("*" + fmt(args.vararg, None))
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(fmt(arg, default))
    if args.kwarg is not None:
        parts.append("**" + fmt(args.kwarg, None))
    signature = f"({', '.join(parts)})"
    if returns is not None:
        signature += f" -> {ast.unparse(returns)}"
    return signature


def _literal_str_list(node: ast.expr) -> Optional[List[str]]:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names: List[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append(element.value)
        else:
            return None
    return names


def _decorator_names(
    decorator_list: Sequence[ast.expr],
) -> Tuple[str, ...]:
    names = []
    for decorator in decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


def _class_def_info(module: str, node: ast.ClassDef) -> DefInfo:
    bases = tuple(ast.unparse(base) for base in node.bases)
    decorators = _decorator_names(node.decorator_list)
    is_dc = "dataclass" in decorators
    fields: List[str] = []
    methods: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            text = f"{stmt.target.id}: {ast.unparse(stmt.annotation)}"
            if stmt.value is not None:
                text += f" = {ast.unparse(stmt.value)}"
            fields.append(text)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.name.startswith("_") or stmt.name in (
                "__init__", "__call__", "__post_init__"
            ):
                methods.append(
                    stmt.name + format_signature(stmt.args, stmt.returns)
                )
    return DefInfo(
        kind="class", module=module, name=node.name, line=node.lineno,
        bases=bases, fields=tuple(fields), methods=tuple(methods),
        is_dataclass=is_dc, decorators=decorators,
    )


class _ModuleExtractor:
    """One pass over a module AST collecting defs, exports, and edges."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info

    def extract(self) -> None:
        self._visit_body(
            self.info.tree.body, eager=True, typecheck=False,
            module_scope=True,
        )

    def _visit_body(
        self,
        body: Sequence[ast.stmt],
        *,
        eager: bool,
        typecheck: bool,
        module_scope: bool,
    ) -> None:
        for stmt in body:
            self._visit_stmt(
                stmt, eager=eager, typecheck=typecheck,
                module_scope=module_scope,
            )

    def _visit_stmt(
        self,
        stmt: ast.stmt,
        *,
        eager: bool,
        typecheck: bool,
        module_scope: bool,
    ) -> None:
        info = self.info
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name.split(".")[0] != _root_of(info.name):
                    continue
                local = alias.asname or alias.name.split(".")[0]
                info.edges.append(ImportEdge(
                    source=info.name, target=alias.name, name="",
                    alias=local, line=stmt.lineno, eager=eager,
                    typecheck=typecheck,
                ))
                if eager and module_scope:
                    info.defs.setdefault(local, DefInfo(
                        kind="alias", module=info.name, name=local,
                        line=stmt.lineno, alias_target=(alias.name, ""),
                    ))
        elif isinstance(stmt, ast.ImportFrom):
            target = self._absolute_target(stmt)
            if target is None or target.split(".")[0] != _root_of(info.name):
                return
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.edges.append(ImportEdge(
                    source=info.name, target=target, name=alias.name,
                    alias=local, line=stmt.lineno, eager=eager,
                    typecheck=typecheck,
                ))
                if eager and module_scope:
                    info.defs.setdefault(local, DefInfo(
                        kind="alias", module=info.name, name=local,
                        line=stmt.lineno, alias_target=(target, alias.name),
                    ))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if eager and not typecheck and module_scope:
                info.defs.setdefault(stmt.name, DefInfo(
                    kind="function", module=info.name, name=stmt.name,
                    line=stmt.lineno,
                    signature=format_signature(stmt.args, stmt.returns),
                    decorators=_decorator_names(stmt.decorator_list),
                ))
            self._visit_body(stmt.body, eager=False, typecheck=typecheck,
                             module_scope=False)
        elif isinstance(stmt, ast.ClassDef):
            if eager and not typecheck and module_scope:
                info.defs.setdefault(
                    stmt.name, _class_def_info(info.name, stmt)
                )
            # Class bodies execute at import time: imports stay eager —
            # but their defs are attributes, not module-level names.
            self._visit_body(stmt.body, eager=eager, typecheck=typecheck,
                             module_scope=False)
        elif isinstance(stmt, ast.Assign):
            if module_scope:
                for target_node in stmt.targets:
                    if isinstance(target_node, ast.Name):
                        self._record_assign(target_node.id, stmt)
            self._visit_children(stmt, eager=eager, typecheck=typecheck,
                                 module_scope=module_scope)
        elif isinstance(stmt, ast.AnnAssign):
            if module_scope and isinstance(stmt.target, ast.Name):
                self._record_assign(stmt.target.id, stmt)
            self._visit_children(stmt, eager=eager, typecheck=typecheck,
                                 module_scope=module_scope)
        elif isinstance(stmt, ast.If):
            branch_typecheck = typecheck or _is_type_checking_test(stmt.test)
            self._visit_body(stmt.body, eager=eager,
                             typecheck=branch_typecheck,
                             module_scope=module_scope)
            self._visit_body(stmt.orelse, eager=eager, typecheck=typecheck,
                             module_scope=module_scope)
        elif isinstance(stmt, (ast.Try, ast.With, ast.For, ast.While)):
            self._visit_children(stmt, eager=eager, typecheck=typecheck,
                                 module_scope=module_scope)

    def _visit_children(
        self,
        stmt: ast.stmt,
        *,
        eager: bool,
        typecheck: bool,
        module_scope: bool,
    ) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, eager=eager, typecheck=typecheck,
                                 module_scope=module_scope)
            elif isinstance(child, ast.ExceptHandler):
                self._visit_body(child.body, eager=eager,
                                 typecheck=typecheck,
                                 module_scope=module_scope)

    def _record_assign(self, name: str, stmt: ast.stmt) -> None:
        info = self.info
        value = getattr(stmt, "value", None)
        if name == "__all__":
            if value is not None:
                info.exports = _literal_str_list(value)
            return
        if name.startswith("__") and name.endswith("__"):
            return
        # Module-level name aliasing an existing def keeps the alias
        # chain intact: `render_text = render_findings_text`.
        if (
            value is not None
            and isinstance(value, ast.Name)
            and value.id in info.defs
        ):
            info.defs.setdefault(name, DefInfo(
                kind="alias", module=info.name, name=name,
                line=int(getattr(stmt, "lineno", 0)),
                alias_target=(info.name, value.id),
            ))
            return
        annotation = getattr(stmt, "annotation", None)
        info.defs.setdefault(name, DefInfo(
            kind="constant", module=info.name, name=name,
            line=getattr(stmt, "lineno", 0),
            # The annotation participates in the API's type vocabulary
            # (dead-code analysis), not in the surface snapshot.
            signature=ast.unparse(annotation) if annotation is not None
            else "",
        ))

    def _absolute_target(self, stmt: ast.ImportFrom) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module
        # Relative import: resolve against this module's package path.
        parts = self.info.name.split(".")
        if self.info.is_init:
            base = parts[: len(parts) - (stmt.level - 1)]
        else:
            base = parts[: len(parts) - stmt.level]
        if not base:
            return None
        if stmt.module:
            base = base + stmt.module.split(".")
        return ".".join(base)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _root_of(module: str) -> str:
    return module.split(".")[0]


def package_of(module: str, root: str) -> str:
    """The layering node a module belongs to.

    Subpackage modules map to their subpackage (``repro.core.plan`` →
    ``core``); top-level modules map to themselves (``repro.cli`` →
    ``cli``); the root ``__init__`` maps to the root package name.
    """
    parts = module.split(".")
    if len(parts) == 1:
        return root
    return parts[1]


# ------------------------------------------------------------- discovery


def _find_package_dirs(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Locate top-level packages under ``paths``.

    Returns ``(package_name, package_dir)`` pairs.  A path may be a
    source root containing packages (``src``), a package directory
    itself (``src/repro``), or a single ``.py`` file (treated as a
    one-module tree for fixtures).
    """
    found: List[Tuple[str, str]] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(("", path))
            continue
        if os.path.isfile(os.path.join(path, "__init__.py")):
            found.append((os.path.basename(os.path.abspath(path)), path))
            continue
        for entry in sorted(os.listdir(path)):
            candidate = os.path.join(path, entry)
            if os.path.isfile(os.path.join(candidate, "__init__.py")):
                found.append((entry, candidate))
    return found


def _iter_module_files(package_dir: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in _SKIP_DIRS and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _module_name(package: str, package_dir: str, path: str) -> str:
    rel = os.path.relpath(path, package_dir).replace(os.sep, "/")
    dotted = rel[:-3].replace("/", ".")
    if dotted == "__init__":
        return package
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return f"{package}.{dotted}"


def build_tree_index(paths: Sequence[str]) -> TreeIndex:
    """Parse every module under ``paths`` into a :class:`TreeIndex`.

    Files that do not parse are skipped here — reprolint owns the
    "file does not parse" finding (RP000); the architecture pass works
    with whatever parses.
    """
    index = TreeIndex()
    for package, package_dir in _find_package_dirs(paths):
        if package == "":
            files: List[str] = [package_dir]
            package = os.path.splitext(os.path.basename(package_dir))[0]
            package_dir = os.path.dirname(package_dir) or "."
        else:
            files = list(_iter_module_files(package_dir))
        if not index.root_package:
            index.root_package = package
        for path in files:
            normalized = path.replace(os.sep, "/")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=normalized)
            except (OSError, SyntaxError):
                continue
            name = _module_name(package, package_dir, path)
            info = ModuleInfo(
                name=name,
                path=normalized,
                source=source,
                tree=tree,
                package=package_of(name, package),
                is_init=normalized.endswith("__init__.py"),
            )
            _ModuleExtractor(info).extract()
            index.modules[name] = info
    return index


# ------------------------------------------------------------ resolution


def resolve_export(
    index: TreeIndex, module: str, name: str
) -> DefInfo:
    """Follow alias chains from ``(module, name)`` to the definition.

    Returns an ``"opaque"`` :class:`DefInfo` when resolution leaves
    the indexed tree (external package, dynamic definition).
    """
    seen: Set[Tuple[str, str]] = set()
    current_module, current_name = module, name
    while (current_module, current_name) not in seen:
        seen.add((current_module, current_name))
        info = index.modules.get(current_module)
        if info is None:
            return DefInfo(kind="opaque", module=current_module,
                           name=current_name)
        definition = info.defs.get(current_name)
        if definition is None:
            submodule = f"{current_module}.{current_name}"
            if submodule in index.modules:
                return DefInfo(kind="module", module=submodule,
                               name=current_name)
            return DefInfo(kind="opaque", module=current_module,
                           name=current_name)
        if definition.kind != "alias":
            return definition
        target_module, target_name = definition.alias_target
        if target_name == "":
            # `import repro.x` binds a module object.
            return DefInfo(kind="module", module=target_module,
                           name=current_name)
        current_module, current_name = target_module, target_name
    return DefInfo(kind="opaque", module=module, name=name)


# ----------------------------------------------------------- usage index


class _UsageVisitor(ast.NodeVisitor):
    def __init__(self, usage: UsageIndex, source_pkg: str, root: str) -> None:
        self.usage = usage
        self.source_pkg = source_pkg
        self.root = root
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] != self.root:
                continue
            self.usage.imported_modules.add(alias.name)
            local = alias.asname or alias.name.split(".")[0]
            self.aliases[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level != 0 or node.module is None:
            return
        if node.module.split(".")[0] != self.root:
            return
        self.usage.imported_modules.add(node.module)
        for alias in node.names:
            if alias.name == "*":
                continue
            self.usage.record_import(
                node.module, alias.name, self.source_pkg
            )
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain: List[str] = [node.attr]
        value: ast.expr = node.value
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in self.aliases:
            chain.append(self.aliases[value.id])
            dotted = ".".join(reversed(chain))
            prefix, _, attr = dotted.rpartition(".")
            self.usage.attributes.add((prefix, attr))
        self.generic_visit(node)


def build_usage_index(
    index: TreeIndex, usage_paths: Sequence[str]
) -> UsageIndex:
    """Harvest name usage from the tree plus external usage roots.

    ``usage_paths`` typically names the test/bench/example trees so an
    export consumed only there still counts as used; the tree's own
    modules contribute their import edges with the *importing package*
    recorded, letting rules ask "used outside the defining package?".
    """
    usage = UsageIndex()
    root = index.root_package
    for info in index.modules.values():
        for edge in info.edges:
            if edge.name:
                usage.record_import(edge.target, edge.name, info.package)
            else:
                usage.imported_modules.add(edge.target)
        visitor = _UsageVisitor(usage, info.package, root)
        visitor.visit(info.tree)
    for path in usage_paths:
        if not os.path.isdir(path) and not os.path.isfile(path):
            continue
        files = [path] if os.path.isfile(path) else [
            os.path.join(dirpath, name)
            for dirpath, dirnames, filenames in os.walk(path)
            for name in sorted(filenames)
            if name.endswith(".py")
            and not any(
                part in _SKIP_DIRS or part.startswith(".")
                for part in dirpath.split(os.sep)
            )
        ]
        for filename in files:
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=filename)
            except (OSError, SyntaxError):
                continue
            visitor = _UsageVisitor(usage, "<external>", root)
            visitor.visit(tree)
    return usage
