"""API-hygiene rules: RP007, RP008.

Both guard interfaces rather than expressions: RP007 catches the classic
shared-mutable-default bug anywhere in ``src/``, and RP008 enforces the
dtype contract of array-returning functions in the numerical packages
(``core``/``solvers``), where a silent float32/object coercion changes
profit numbers instead of raising.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding
from repro.analysis.runner import FileContext

__all__ = ["MutableDefaultRule", "ArrayDtypeContractRule"]

#: Call names whose results are mutable containers when used as defaults.
_MUTABLE_FACTORIES = ("list", "dict", "set", "bytearray")


def _mutable_default(node: ast.AST) -> Optional[str]:
    """A description of ``node`` when it is a mutable default, else None."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in _MUTABLE_FACTORIES and not node.args and not node.keywords:
            return f"{name}()"
    return None


@register
class MutableDefaultRule(Rule):
    """RP007 — mutable default argument values."""

    code = "RP007"
    name = "mutable-default"
    rationale = (
        "A mutable default ([] / {} / set() / dict()) is evaluated once "
        "at def time and shared by every call; the first caller that "
        "appends to it changes the default for all later callers. In "
        "this codebase that means one slot's solver options, collected "
        "findings, or level vectors leaking into the next slot — a "
        "cross-slot state bug the warm-start tests cannot distinguish "
        "from a legitimate cache. Default to None and create the "
        "container inside the function."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            owner = "<lambda>" if isinstance(node, ast.Lambda) else node.name
            args = node.args
            defaults: List[Tuple[ast.arg, ast.AST]] = []
            positional = args.posonlyargs + args.args
            for arg, default in zip(
                positional[len(positional) - len(args.defaults):],
                args.defaults,
            ):
                defaults.append((arg, default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaults.append((arg, default))
            for arg, default in defaults:
                description = _mutable_default(default)
                if description is not None:
                    yield self.diagnostic(
                        ctx, default,
                        f"mutable default {description} for parameter "
                        f"'{arg.arg}' of '{owner}' is shared across "
                        "calls; default to None and build the container "
                        "in the body",
                    )


def _returns_ndarray(fn: ast.FunctionDef) -> bool:
    """True when the return annotation names ``np.ndarray``/``ndarray``."""
    ann = fn.returns
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value
    else:
        try:
            text = ast.unparse(ann)
        except ValueError:  # pragma: no cover - malformed annotation
            return False
    return "np.ndarray" in text or text == "ndarray"


@register
class ArrayDtypeContractRule(Rule):
    """RP008 — ndarray-returning APIs must document their dtype."""

    code = "RP008"
    name = "array-dtype-contract"
    rationale = (
        "Profit aggregation, LP matrices, and delay formulas assume "
        "float64 end to end; an ndarray-returning function that quietly "
        "yields float32 (e.g. from a downsampled trace) or object dtype "
        "(from a ragged list) loses half the mantissa or breaks "
        "vectorized ops far from the source. Public array-returning "
        "functions in the numerical packages (core/, solvers/) must "
        "state the dtype contract in their docstring — mention "
        "'float64' (or the word 'dtype' for the exceptional cases) so "
        "callers and reviewers see the guarantee."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("core", "solvers"):
            return
        yield from self._walk(ctx, ctx.tree, private_scope=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, private_scope: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._walk(
                    ctx, child,
                    private_scope or child.name.startswith("_"),
                )
            elif isinstance(child, ast.FunctionDef):
                if not private_scope and not child.name.startswith("_"):
                    yield from self._check_function(ctx, child)
                # Nested defs are local helpers — not API surface.

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        if not _returns_ndarray(fn):
            return
        doc = ast.get_docstring(fn) or ""
        lowered = doc.lower()
        if "float64" not in lowered and "dtype" not in lowered:
            yield self.diagnostic(
                ctx, fn,
                f"'{fn.name}' returns np.ndarray but its docstring does "
                "not state the dtype contract; document 'float64' (or "
                "the intended dtype) so silent float32/object coercion "
                "is reviewable",
            )
