"""Dead-code detection: AR030 dead exports, AR031 orphan code.

AR030 flags a subpackage export whose resolved definition is never
imported or attribute-accessed anywhere outside its own re-export
plumbing — not by another module in the tree, not by the tests,
benchmarks, or examples (the usage roots), and not re-exported from
the root package's public API.  AR031 flags two shapes of orphan code:
a module-private ``_helper`` referenced nowhere in its module, and a
whole module nothing imports.

Both anchor to the defining file, so intentional oracles (e.g. the
reference implementations kept for differential testing) opt out with
the existing directive mechanism::

    # reprolint: disable-file=AR030,AR031
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set, Tuple

from repro.analysis.arch.audit import ArchContext
from repro.analysis.arch.graph import (
    DefInfo,
    ModuleInfo,
    TreeIndex,
    UsageIndex,
    resolve_export,
)
from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding

__all__ = ["DeadExportRule", "OrphanCodeRule"]

_EXTERNAL = "<external>"

_DefKey = Tuple[str, str]


def _is_registered(definition: DefInfo) -> bool:
    """True when a decorator wires the def into a registry.

    Registration decorators follow the ``register*`` naming convention
    throughout the tree (``@register``, ``@register_scenario``,
    ``@register_subcommand``); inert decorators
    (``@dataclass``, ``@lru_cache``) transform without consuming.
    """
    return any(
        name.startswith("register") for name in definition.decorators
    )


def _resolved_key(index: TreeIndex, module: str, name: str) -> _DefKey:
    resolved = resolve_export(index, module, name)
    return (resolved.module, resolved.name)


def _collect_used_defs(
    index: TreeIndex, usage: UsageIndex
) -> Set[_DefKey]:
    """Definitions consumed by something other than re-export plumbing.

    Tree import edges count unless the importing module is an
    ``__init__`` re-exporting the very name it imports; usage-root
    imports and attribute accesses through module aliases always
    count.
    """
    used: Set[_DefKey] = set()
    for info in index.modules.values():
        exports = set(info.exports or ())
        for edge in info.edges:
            if not edge.name:
                continue
            if info.is_init and edge.alias in exports:
                continue
            used.add(_resolved_key(index, edge.target, edge.name))
    for (module, name), sources in usage.by_source.items():
        if _EXTERNAL in sources:
            used.add(_resolved_key(index, module, name))
    for module, attr in usage.attributes:
        if module in index.modules:
            used.add(_resolved_key(index, module, attr))
    return used


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _signature_referenced(index: TreeIndex) -> Set[str]:
    """Names appearing in any def's signature, fields, or bases.

    A type referenced by an exported function's annotation or a
    dataclass field is API vocabulary — callers need it to spell the
    types of values they already hold — so it is not a dead export
    even when nothing imports it by name yet.
    """
    tokens: Set[str] = set()
    for info in index.modules.values():
        for definition in info.defs.values():
            for text in (
                definition.signature,
                *definition.bases,
                *definition.fields,
                *definition.methods,
            ):
                tokens.update(_IDENT_RE.findall(text))
    return tokens


def _root_public_defs(index: TreeIndex) -> Set[_DefKey]:
    root = index.modules.get(index.root_package)
    if root is None or root.exports is None:
        return set()
    return {
        _resolved_key(index, root.name, name) for name in root.exports
    }


@register
class DeadExportRule(Rule):
    code = "AR030"
    name = "dead-export"
    codes = {
        "AR030": "a subpackage export is never imported by anything",
    }
    rationale = (
        "An export nobody imports is API surface without users: it "
        "still costs review attention on every change, still appears "
        "in the surface lock, and still constrains refactors.  The "
        "usage scan spans the tree plus the test/bench/example roots, "
        "so a test-only helper stays alive; what remains is genuinely "
        "unreferenced and should be deleted or demoted to private."
    )

    def check(self, ctx: ArchContext) -> Iterator[Finding]:
        index = ctx.index
        used = _collect_used_defs(index, ctx.usage)
        public = _root_public_defs(index)
        vocabulary = _signature_referenced(index)
        for info in index.modules.values():
            if not info.is_init or info.exports is None:
                continue
            if info.name == index.root_package:
                # The root __all__ IS the public API; external users
                # are out of scope for a static scan.
                continue
            for name in info.exports:
                resolved = resolve_export(index, info.name, name)
                if resolved.kind in ("module", "opaque"):
                    continue
                if _is_registered(resolved):
                    # Registered via a decorator (rule registries, CLI
                    # subcommands): the registry is the consumer.
                    continue
                key = (resolved.module, resolved.name)
                if key in used or key in public:
                    continue
                if (
                    resolved.kind == "class"
                    and resolved.name in vocabulary
                ):
                    # Referenced by another def's signature or fields:
                    # part of the API's type vocabulary.
                    continue
                anchor = index.modules.get(resolved.module, info)
                yield Finding(
                    code="AR030",
                    severity="warning",
                    component=f"export[{info.name}.{name}]",
                    message=(
                        f"{info.name} exports {name} "
                        f"(defined in {resolved.module}) but nothing "
                        "in the tree, tests, benchmarks, or examples "
                        "imports it; delete it, demote it to private, "
                        "or suppress with a reprolint directive if it "
                        "is a deliberate oracle"
                    ),
                    data={"defined_in": resolved.module},
                    path=anchor.path,
                    line=resolved.line or 1,
                )


def _private_candidates(info: ModuleInfo) -> Iterator[DefInfo]:
    exports = set(info.exports or ())
    for definition in info.defs.values():
        if definition.kind not in ("function", "class"):
            continue
        name = definition.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if name in exports or _is_registered(definition):
            continue
        yield definition


def _referenced_names(info: ModuleInfo) -> Set[str]:
    """Names loaded at module level outside their own definition."""
    referenced: Set[str] = set()
    for stmt in info.tree.body:
        owner = ""
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            owner = stmt.name
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if node.id != owner:
                    referenced.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                # String annotations / forward refs keep a name alive.
                referenced.update(
                    part for part in _identifier_parts(node.value)
                )
    return referenced


def _identifier_parts(text: str) -> Iterator[str]:
    if len(text) > 200:
        return
    token = ""
    for char in text + " ":
        if char.isidentifier() or (token and char.isdigit()):
            token += char
        else:
            if token:
                yield token
            token = ""


@register
class OrphanCodeRule(Rule):
    code = "AR031"
    name = "orphan-code"
    codes = {
        "AR031": "a private helper or whole module is referenced nowhere",
    }
    rationale = (
        "Unreachable code rots silently: it compiles, it lints, and "
        "it misleads readers into thinking it participates.  A "
        "``_helper`` no statement in its module references, or a "
        "module no import anywhere reaches, is dead weight the next "
        "refactor must still read around — delete it, or mark a "
        "deliberate oracle with a reprolint directive."
    )

    def check(self, ctx: ArchContext) -> Iterator[Finding]:
        index = ctx.index
        usage = ctx.usage
        imported_pairs = {
            f"{module}.{name}" for module, name in usage.imported
        }
        referenced_modules: Set[str] = set(usage.imported_modules)
        for info in index.modules.values():
            for edge in info.edges:
                referenced_modules.add(edge.target)
        for info in index.modules.values():
            referenced = _referenced_names(info)
            for definition in _private_candidates(info):
                if definition.name in referenced:
                    continue
                if (info.name, definition.name) in usage.imported:
                    continue
                yield Finding(
                    code="AR031",
                    severity="warning",
                    component=f"private[{info.name}.{definition.name}]",
                    message=(
                        f"private {definition.kind} {definition.name} "
                        f"is referenced nowhere in {info.name}; delete "
                        "it or suppress if kept deliberately"
                    ),
                    data={"kind": definition.kind},
                    path=info.path,
                    line=definition.line,
                )
            if info.is_init:
                continue
            parts = info.name.split(".")
            if parts[-1] in ("__main__", "conftest"):
                continue
            if (
                info.name in referenced_modules
                or info.name in imported_pairs
            ):
                continue
            yield Finding(
                code="AR031",
                severity="warning",
                component=f"module[{info.name}]",
                message=(
                    f"module {info.name} is imported by nothing in the "
                    "tree, tests, benchmarks, or examples; delete it "
                    "or wire it in"
                ),
                data={"path": info.path},
                path=info.path,
                line=1,
            )
