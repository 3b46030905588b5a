"""Cross-module contract rules: RP004, RP005, RP006.

These encode contracts introduced by the warm-start (PR 1), telemetry
(PR 2), and fault-tolerance (PR 3) layers — contracts a module can
silently drop without any test noticing until a run loses its traces,
its warm state, or a whole slot's failure cause.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding
from repro.analysis.runner import FileContext

__all__ = ["SolverContractRule", "PoolPicklabilityRule", "SwallowedExceptionRule"]


def _param_names(fn: ast.FunctionDef) -> Set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


@register
class SolverContractRule(Rule):
    """RP004 — solver entry points must accept ``state`` and ``collector``."""

    code = "RP004"
    name = "solver-contract"
    rationale = (
        "Every solver entry point threads two cross-cutting objects: the "
        "SolverState warm-start token (repro/solvers/base.py) and the "
        "repro.obs Collector. An entry point without those parameters "
        "silently severs the chain — downstream callers cannot forward "
        "warm state or telemetry through it, cross-slot warm-start hits "
        "quietly become cold solves, and the slot traces lose the "
        "solver's timings. Accept state=None and collector=None even "
        "when a backend cannot consume them (document that they are "
        "offered but unused)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("solvers"):
            return
        entry_points: List[Tuple[ast.FunctionDef, str]] = []
        module = ctx.tree
        assert isinstance(module, ast.Module)
        for node in module.body:
            if isinstance(node, ast.FunctionDef) and (
                node.name == "solve" or node.name.startswith("solve_")
            ):
                entry_points.append((node, node.name))
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Solver"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "solve":
                        entry_points.append((item, f"{node.name}.solve"))
        for fn, label in entry_points:
            missing = sorted({"state", "collector"} - _param_names(fn))
            if missing:
                yield self.diagnostic(
                    ctx, fn,
                    f"solver entry point '{label}' drops the threading "
                    f"contract: missing parameter(s) {', '.join(missing)} "
                    "(warm-start SolverState / repro.obs Collector; see "
                    "repro/solvers/base.py)",
                )


def _chain_tail(node: ast.AST) -> Optional[str]:
    """Last attribute/name segment of a call target, or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _receiver_name(node: ast.AST) -> str:
    """Best-effort dotted receiver of an attribute call, lowercased."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(parts[::-1]).lower()


@register
class PoolPicklabilityRule(Rule):
    """RP005 — lambdas/nested callables handed to process-pool boundaries."""

    code = "RP005"
    name = "pool-picklability"
    rationale = (
        "Lambdas, closures, and locally-defined functions do not pickle, "
        "so they cannot cross the ProcessPoolExecutor boundary used by "
        "repro.sim.parallel. Worse, since PR 3 the pool path *recovers* "
        "from worker failures by re-solving chunks serially, so an "
        "unpicklable callable does not crash the run — it degrades every "
        "chunk into a serial re-solve and records the pickle error as a "
        "slot failure. Pass a module-level function or a picklable spec "
        "(DispatcherSpec) instead."
    )

    #: Callables these names receive must cross a process boundary.
    _POOL_FUNCTIONS = {"parallel_run_simulation", "ProcessPoolExecutor"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, local_callables=frozenset())

    def _local_callables(self, fn: ast.AST) -> Set[str]:
        """Names bound to nested defs / lambdas directly inside ``fn``."""
        names: Set[str] = set()
        for child in ast.iter_child_nodes(fn):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(child.name)
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Lambda):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _walk(
        self, ctx: FileContext, node: ast.AST, local_callables: frozenset
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            scope = local_callables
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = local_callables | self._local_callables(child)
            elif isinstance(child, ast.Call):
                yield from self._check_call(ctx, child, local_callables)
            yield from self._walk(ctx, child, scope)

    def _check_call(
        self, ctx: FileContext, call: ast.Call, local_callables: frozenset
    ) -> Iterator[Finding]:
        tail = _chain_tail(call.func)
        is_boundary = False
        if tail == "submit" and isinstance(call.func, ast.Attribute):
            is_boundary = True
        elif tail == "map" and isinstance(call.func, ast.Attribute):
            receiver = _receiver_name(call.func.value)
            is_boundary = "pool" in receiver or "executor" in receiver
        elif tail in self._POOL_FUNCTIONS:
            is_boundary = True
        if not is_boundary:
            return
        candidates = list(call.args) + [kw.value for kw in call.keywords]
        for arg in candidates:
            if isinstance(arg, ast.Lambda):
                yield self.diagnostic(
                    ctx, arg,
                    f"lambda passed across the process-pool boundary "
                    f"('{tail}'); lambdas do not pickle — use a "
                    "module-level function or a picklable spec",
                )
            elif isinstance(arg, ast.Name) and arg.id in local_callables:
                yield self.diagnostic(
                    ctx, arg,
                    f"locally-defined callable '{arg.id}' passed across "
                    f"the process-pool boundary ('{tail}'); nested "
                    "functions do not pickle — move it to module scope",
                )


#: Identifier substrings that count as recording a failure. "failure",
#: "failures", "failed_chunks", and "fallback_*" all match.
_FAILURE_MARKERS = ("fail", "fallback")


def _is_broad_handler(handler: ast.ExceptHandler) -> Tuple[bool, str]:
    """(is bare-or-broad, description) for an except clause."""
    if handler.type is None:
        return True, "bare 'except:'"
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        tail = _chain_tail(t)
        if tail in ("Exception", "BaseException"):
            return True, f"'except {tail}'"
    return False, ""


def _handler_records_failure(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            tail = _chain_tail(node.func)
            if tail in ("warn", "warning", "error", "exception"):
                return True
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            lowered = name.lower()
            if any(marker in lowered for marker in _FAILURE_MARKERS):
                return True
    return False


@register
class SwallowedExceptionRule(Rule):
    """RP006 — bare/swallowed ``except`` in solver and fallback code."""

    code = "RP006"
    name = "swallowed-exception"
    rationale = (
        "The fallback chain (PR 3) turns solver failures into recorded "
        "degradations: every caught error must either re-raise, warn, or "
        "land in a failure record (SlotTrace.failure, "
        "SimulationResult.failures). A bare or broad "
        "except that just swallows leaves the run reporting a clean, "
        "wrong profit — in this domain a wrong plan is a wrong dollar "
        "amount, not an exception."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scoped = ctx.in_package("solvers", "core", "sim")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                broad, description = _is_broad_handler(handler)
                if handler.type is None:
                    yield self.diagnostic(
                        ctx, handler,
                        "bare 'except:' catches SystemExit/KeyboardInterrupt "
                        "too; name the exception types and record or "
                        "re-raise the failure",
                    )
                    continue
                if not scoped or not broad:
                    continue
                if not _handler_records_failure(handler):
                    yield self.diagnostic(
                        ctx, handler,
                        f"{description} swallows the error without "
                        "re-raising, warning, or recording a failure "
                        "(SlotTrace.failure / SimulationResult.failures); "
                        "a silently-dropped solver error becomes a wrong "
                        "profit number",
                    )
