"""Numeric-guard rules: RP009 (tolerance literals), RP010 (division).

Both protect the same invariant from different sides: every numeric
threshold the pipeline branches on must be *named* (so two call sites
cannot silently disagree about what "zero" means), and every division
whose denominator models a physical quantity that can reach zero
(arrival rates, server counts, capacities) must be guarded before the
``inf``/``nan`` escapes into a profit number.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding
from repro.analysis.runner import FileContext

__all__ = ["ToleranceLiteralRule", "UnguardedDivisionRule"]

#: The module allowed to define tolerance constants.
_TOLERANCE_HOME_SUFFIX = "solvers/tolerances.py"

#: Magnitude at or below which a float literal in a comparison or an
#: additive nudge reads as a *tolerance* rather than model data.  Model
#: coefficients in the paper (prices, powers, deadlines) all sit well
#: above 1e-4; everything at or below it is an epsilon.
_TOLERANCE_CEILING = 1e-4


def _float_value(node: ast.AST) -> Optional[float]:
    """The literal float value of ``node`` (through unary +/-), else None."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        inner = _float_value(node.operand)
        if inner is not None:
            return -inner if isinstance(node.op, ast.USub) else inner
    return None


def _is_tolerance_literal(node: ast.AST) -> bool:
    value = _float_value(node)
    return value is not None and 0.0 < abs(value) <= _TOLERANCE_CEILING


@register
class ToleranceLiteralRule(Rule):
    """RP009 — hardcoded tolerance literal outside the tolerance module."""

    code = "RP009"
    name = "hardcoded-tolerance"
    rationale = (
        "A tolerance spelled inline (1e-6 here, 1e-8 there) drifts: two "
        "call sites that must agree on what counts as zero — presolve "
        "dropping a row, the simplex ratio test keeping it — end up "
        "with different epsilons and the solve paths diverge on "
        "degenerate slots. Every threshold that gates a comparison or "
        "nudges a bound must be a named constant from "
        "repro.solvers.tolerances so a change lands everywhere at once."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("solvers", "core"):
            return
        if ctx.path.endswith(_TOLERANCE_HOME_SUFFIX):
            return
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                candidates = [node.left, *node.comparators]
                context = "compared against"
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                candidates = [node.left, node.right]
                context = "added to / subtracted from a quantity"
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                candidates = [node.value]
                context = "added to / subtracted from a quantity"
            else:
                continue
            for cand in candidates:
                if not _is_tolerance_literal(cand):
                    continue
                key = (
                    int(getattr(cand, "lineno", 0)),
                    int(getattr(cand, "col_offset", 0)),
                )
                if key in seen:
                    continue
                seen.add(key)
                value = _float_value(cand)
                yield self.diagnostic(
                    ctx, cand,
                    f"tolerance literal {value!r} {context}; name it in "
                    "repro.solvers.tolerances and import it so every "
                    "solve path agrees on the same epsilon",
                )


#: Denominator leaf-name fragments that model quantities the paper lets
#: reach zero: per-class arrival rates between bursts, powered-on
#: server counts after right-sizing, residual capacities at saturation.
_RISKY_FRAGMENTS = (
    "arrival", "rate", "server", "capacity", "count", "total",
    "load", "demand", "mu", "lam",
)

#: Call names that clamp a denominator away from zero.
_CLAMP_CALLS = {"max", "maximum", "fmax", "clip"}


def _leaf_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a denominator expression, if any.

    ``rates`` -> 'rates'; ``self.arrival_rates`` -> 'arrival_rates';
    ``mu[k]`` -> 'mu'.  Parenthesized arithmetic and calls return None —
    a computed denominator carries no recognizable quantity name.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _leaf_name(node.value)
    return None


def _is_risky_name(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return any(frag in lowered for frag in _RISKY_FRAGMENTS)


def _call_leaf(node: ast.AST) -> Optional[str]:
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _has_inline_clamp(denominator: ast.AST) -> bool:
    """True when the denominator expression itself bounds away from zero."""
    for sub in ast.walk(denominator):
        if isinstance(sub, ast.Call) and _call_leaf(sub) in _CLAMP_CALLS:
            return True
        # ``x / (rate + eps)`` — an additive positive constant floors it.
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
            for side in (sub.left, sub.right):
                value = _float_value(side)
                if value is None and isinstance(side, ast.Constant):
                    raw = side.value
                    value = float(raw) if type(raw) is int else None
                if value is not None and value > 0.0:
                    return True
    return False


def _guard_names(test: ast.AST) -> Set[str]:
    """Identifiers (names and attribute leaves) appearing in a test."""
    names: Set[str] = set()
    for sub in ast.walk(test):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _terminates(body: list) -> bool:
    """True when a block always leaves the enclosing suite."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _validated_names(stmt: ast.stmt) -> Set[str]:
    """Names a statement establishes as safe denominators.

    Two repo idioms count: routing a value through
    ``repro.utils.validation.check_positive`` (``mu =
    check_positive(rate, ..)`` raises before zero ever reaches a
    division — the weaker ``check_nonnegative`` does *not* count), and
    binding a clamped or selected expression (``safe = np.where(cond,
    x, 1.0)`` / ``np.maximum(x, eps)``) to a name.
    """
    names: Set[str] = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Call) and _call_leaf(sub) == "check_positive":
            for arg in sub.args:
                validated = _leaf_name(arg)
                if validated is not None:
                    names.add(validated)
    targets: list = []
    value: Optional[ast.AST] = None
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    if value is not None and (
        _has_inline_clamp(value)
        or _call_leaf(value) in (_CLAMP_CALLS | {"where", "check_positive"})
    ):
        for target in targets:
            bound = _leaf_name(target)
            if bound is not None:
                names.add(bound)
    return names


def _class_invariants(cls: ast.ClassDef) -> Set[str]:
    """Attribute names ``__post_init__`` proves nonzero for the class.

    Frozen dataclasses validate in ``__post_init__`` and never mutate,
    so a field routed through ``check_positive`` there (or gated by an
    ``if field < 1: raise``) stays safe in every method.
    """
    invariants: Set[str] = set()
    for stmt in cls.body:
        if not (
            isinstance(stmt, ast.FunctionDef)
            and stmt.name == "__post_init__"
        ):
            continue
        for inner in stmt.body:
            invariants |= _validated_names(inner)
            if isinstance(inner, ast.If) and _terminates(inner.body):
                invariants |= _guard_names(inner.test)
    return invariants


@register
class UnguardedDivisionRule(Rule):
    """RP010 — unguarded division by a possibly-zero modeled quantity."""

    code = "RP010"
    name = "unguarded-division"
    rationale = (
        "Arrival rates go to zero between bursts, right-sizing powers "
        "server counts down to zero, and residual capacity hits zero "
        "exactly at the M/M/1 stability boundary (Eq. 1). Dividing by "
        "any of them without a guard turns one idle class into inf/nan "
        "that propagates through delays into the profit objective "
        "without raising. Clamp the denominator (np.maximum(d, eps)), "
        "add a positive floor, or branch on it first."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("core", "stream", "queueing"):
            return
        yield from self._scan_block(ctx, ctx.tree.body, set(), frozenset())

    # -- statement-level walk, threading the guarded-name set ---------

    def _scan_block(
        self,
        ctx: FileContext,
        body: list,
        guarded: Set[str],
        invariants: "frozenset[str]",
    ) -> Iterator[Finding]:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Fresh scope: an enclosing guard does not protect calls
                # made later with different arguments.  Class invariants
                # (``__post_init__`` validation on a frozen dataclass)
                # do carry into every method.
                yield from self._scan_block(
                    ctx, stmt.body, set(invariants), invariants
                )
            elif isinstance(stmt, ast.ClassDef):
                yield from self._scan_block(
                    ctx, stmt.body, guarded,
                    invariants | _class_invariants(stmt),
                )
            elif isinstance(stmt, ast.Assert):
                yield from self._check_expr(ctx, stmt.test, guarded)
                guarded |= _guard_names(stmt.test)
            elif isinstance(stmt, ast.If):
                yield from self._check_expr(ctx, stmt.test, guarded)
                tested = _guard_names(stmt.test)
                yield from self._scan_block(
                    ctx, stmt.body, guarded | tested, invariants
                )
                yield from self._scan_block(
                    ctx, stmt.orelse, guarded | tested, invariants
                )
                # ``if rate == 0: return 0.0`` guards everything after.
                if _terminates(stmt.body) or _terminates(stmt.orelse):
                    guarded |= tested
            elif isinstance(stmt, ast.While):
                yield from self._check_expr(ctx, stmt.test, guarded)
                tested = _guard_names(stmt.test)
                yield from self._scan_block(
                    ctx, stmt.body, guarded | tested, invariants
                )
                yield from self._scan_block(
                    ctx, stmt.orelse, guarded, invariants
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._check_expr(ctx, stmt.iter, guarded)
                yield from self._scan_block(ctx, stmt.body, guarded, invariants)
                yield from self._scan_block(
                    ctx, stmt.orelse, guarded, invariants
                )
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield from self._check_expr(
                        ctx, item.context_expr, guarded
                    )
                yield from self._scan_block(ctx, stmt.body, guarded, invariants)
            elif isinstance(stmt, ast.Try):
                yield from self._scan_block(ctx, stmt.body, guarded, invariants)
                for handler in stmt.handlers:
                    yield from self._scan_block(
                        ctx, handler.body, guarded, invariants
                    )
                yield from self._scan_block(
                    ctx, stmt.orelse, guarded, invariants
                )
                yield from self._scan_block(
                    ctx, stmt.finalbody, guarded, invariants
                )
            else:
                yield from self._check_expr(ctx, stmt, guarded)
                guarded |= _validated_names(stmt)

    # -- expression-level walk -----------------------------------------

    def _check_expr(
        self, ctx: FileContext, node: ast.AST, guarded: Set[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.IfExp):
            yield from self._check_expr(ctx, node.test, guarded)
            branch_guard = guarded | _guard_names(node.test)
            yield from self._check_expr(ctx, node.body, branch_guard)
            yield from self._check_expr(ctx, node.orelse, branch_guard)
            return
        if (
            isinstance(node, ast.Call)
            and _call_leaf(node) == "where"
            and len(node.args) >= 3
        ):
            # np.where(rate > 0, x / rate, fallback): the condition
            # selects away the zero lanes before the division lands.
            yield from self._check_expr(ctx, node.args[0], guarded)
            branch_guard = guarded | _guard_names(node.args[0])
            for arg in node.args[1:]:
                yield from self._check_expr(ctx, arg, branch_guard)
            for kw in node.keywords:
                yield from self._check_expr(ctx, kw.value, branch_guard)
            return
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Div, ast.FloorDiv)
        ):
            yield from self._maybe_flag(ctx, node, guarded)
        for child in ast.iter_child_nodes(node):
            yield from self._check_expr(ctx, child, guarded)

    def _maybe_flag(
        self, ctx: FileContext, node: ast.BinOp, guarded: Set[str]
    ) -> Iterator[Finding]:
        name = _leaf_name(node.right)
        if not _is_risky_name(name):
            return
        if name in guarded:
            return
        if _has_inline_clamp(node.right):
            return
        yield self.diagnostic(
            ctx, node,
            f"division by {name!r}, a modeled quantity that can reach "
            "zero (idle class / powered-down site / saturated link); "
            f"clamp it (np.maximum({name}, eps)) or branch on it first",
        )
