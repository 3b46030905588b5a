"""Import-layer contracts: AR010 layering violations, AR011 cycles.

The layer contract (:mod:`repro.analysis.arch.contract`) declares
which subpackages may eagerly import which.  AR010 flags every eager
module edge whose package pair the contract forbids (unless the exact
module edge is a sanctioned exception); AR011 runs Tarjan's strongly-
connected-components over the eager module graph and flags every
non-trivial SCC — a genuine import-time cycle, whether or not the
contract allows the packages involved.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.arch.audit import ArchContext
from repro.analysis.arch.graph import package_of
from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding

__all__ = ["LayerContractRule", "ImportCycleRule"]


@register
class LayerContractRule(Rule):
    code = "AR010"
    name = "layer-contract"
    codes = {
        "AR010": "eager import crosses a layer boundary the contract "
                 "forbids",
    }
    rationale = (
        "The 15 subpackages form a layered DAG (utils/queueing at the "
        "bottom, experiments at the top).  Layering erodes one "
        "convenient import at a time; each one couples build, test, "
        "and reasoning order until 'core' cannot be imported without "
        "dragging in the whole simulation harness.  The contract makes "
        "the declared layering machine-checked: any eager import not "
        "in the importing package's allowed set fails the gate."
    )

    def check(self, ctx: ArchContext) -> Iterator[Finding]:
        root = ctx.index.root_package
        seen: Set[Tuple[str, str]] = set()
        for edge in ctx.index.eager_edges():
            source_pkg = package_of(edge.source, root)
            target_pkg = package_of(edge.target, root)
            if ctx.contract.allows(source_pkg, target_pkg):
                continue
            if ctx.contract.excepted(edge.source, edge.target):
                continue
            key = (edge.source, edge.target)
            if key in seen:
                continue
            seen.add(key)
            info = ctx.index.modules[edge.source]
            allowed = sorted(ctx.contract.layers.get(source_pkg, ()))
            yield Finding(
                code="AR010",
                severity="error",
                component=f"layer[{edge.source} -> {edge.target}]",
                message=(
                    f"{source_pkg!r} may not eagerly import "
                    f"{target_pkg!r} (allowed: {', '.join(allowed) or 'nothing'}); "
                    "make the import lazy (function scope), move the "
                    "shared code down a layer, or add a sanctioned "
                    "exception to the contract with a tracking comment"
                ),
                data={
                    "source_package": source_pkg,
                    "target_package": target_pkg,
                    "line": float(edge.line),
                },
                path=info.path,
                line=edge.line,
            )


@register
class ImportCycleRule(Rule):
    code = "AR011"
    name = "import-cycle"
    codes = {
        "AR011": "eager module imports form a dependency cycle",
    }
    rationale = (
        "A module cycle means import order decides whether the tree "
        "loads at all — the classic partially-initialized-module "
        "crash that only reproduces from some entry points.  Cycles "
        "are detected on the eager module graph (lazy function-scoped "
        "imports cannot deadlock an import), independent of what the "
        "layer contract allows."
    )

    def check(self, ctx: ArchContext) -> Iterator[Finding]:
        modules = ctx.index.modules
        graph: Dict[str, List[str]] = {}
        for edge in ctx.index.eager_edges():
            # `from repro.des import engine` binds the submodule: the
            # real dependency is on `repro.des.engine`, not the init.
            if edge.name and f"{edge.target}.{edge.name}" in modules:
                target = f"{edge.target}.{edge.name}"
            elif edge.target in modules:
                target = edge.target
            else:
                # `from repro.core import X` targets the package init.
                parent, _, _ = edge.target.rpartition(".")
                if parent not in modules:
                    continue
                target = parent
            if target == edge.source:
                # An init importing its own submodules is the normal
                # package assembly pattern, not a cycle.
                continue
            graph.setdefault(edge.source, []).append(target)
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            members = sorted(component)
            yield Finding(
                code="AR011",
                severity="error",
                component=f"cycle[{' <-> '.join(members)}]",
                message=(
                    f"{len(members)} modules form an eager import "
                    "cycle; break it by moving one import to function "
                    "scope or extracting the shared definitions "
                    "downward"
                ),
                data={"size": float(len(members))},
            )


def _strongly_connected(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCC algorithm, iterative (trees can be deep)."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    number: Dict[str, int] = {}
    on_stack: Set[str] = set()
    result: List[List[str]] = []

    nodes: Set[str] = set(graph)
    for targets in graph.values():
        nodes.update(targets)

    for start in sorted(nodes):
        if start in number:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                number[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = graph.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in number:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], number[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == number[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result
