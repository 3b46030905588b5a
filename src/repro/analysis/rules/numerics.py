"""Numeric-reproducibility rules: RP001, RP002, RP003.

These guard the failure modes that corrupt the paper's profit numbers
without raising: float-equality branches that flip on 1-ulp noise at
the M/M/1 stability boundary (Eq. 1), RNG streams that silently differ
between runs or processes, and frozen-config mutation that invalidates
warm-start caches keyed on config identity.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding
from repro.analysis.runner import FileContext

__all__ = ["FloatEqualityRule", "UnseededRngRule", "FrozenMutationRule"]


def _is_float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    # Negative literals parse as UnaryOp(USub, Constant).
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_constant(node.operand)
    ):
        return True
    # float("inf"), float(x) — an explicit float() cast marks the
    # comparison as floating-point even without a literal.
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


@register
class FloatEqualityRule(Rule):
    """RP001 — exact ``==``/``!=`` against a float operand."""

    code = "RP001"
    name = "float-equality"
    rationale = (
        "Exact float equality flips on one-ulp noise. At the M/M/1 "
        "stability boundary (Eq. 1) or a zero-energy guard, a branch "
        "taken the wrong way yields a finite-but-wrong profit, not an "
        "exception. Compare with an explicit tolerance (math.isclose, "
        "abs(a-b) <= tol) or restructure to an inequality that is "
        "correct on both sides of the boundary."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_float_constant(left) or _is_float_constant(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.diagnostic(
                        ctx, node,
                        f"exact float comparison ('{symbol}' with a float "
                        "operand); use a tolerance (math.isclose / "
                        "abs(a-b) <= tol) or an inequality guard",
                    )


#: Legacy numpy global-state RNG entry points. Calls through
#: ``np.random.<name>`` share one hidden global stream: any library call
#: that also touches it silently perturbs every simulation after it.
_LEGACY_NP_RANDOM: Set[str] = {
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "ranf", "sample", "random_integers",
    "choice", "shuffle", "permutation", "bytes",
    "normal", "standard_normal", "uniform", "exponential", "poisson",
    "binomial", "gamma", "beta", "lognormal", "weibull", "pareto",
    "geometric", "triangular", "laplace", "chisquare", "dirichlet",
    "multinomial", "multivariate_normal", "RandomState",
}

#: The file allowed to own RNG plumbing.
_RNG_HOME_SUFFIX = "utils/rng.py"


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ['a', 'b', 'c']; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


@register
class UnseededRngRule(Rule):
    """RP002 — unseeded or legacy-global randomness outside utils/rng.py."""

    code = "RP002"
    name = "unseeded-rng"
    rationale = (
        "Monte-Carlo and DES results must be reproducible given a seed "
        "(RandomStreams derives named child generators from one root). "
        "Legacy np.random.* globals share hidden state across the whole "
        "process, random (stdlib) adds a second seeding regime, and "
        "default_rng() with no seed gives every run and every pool "
        "worker a different stream. Thread a Generator from "
        "repro.utils.rng instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.endswith(_RNG_HOME_SUFFIX):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.diagnostic(
                            ctx, node,
                            "stdlib 'random' import; use numpy Generators "
                            "from repro.utils.rng so all streams share one "
                            "seeding scheme",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.diagnostic(
                        ctx, node,
                        "stdlib 'random' import; use numpy Generators from "
                        "repro.utils.rng so all streams share one seeding "
                        "scheme",
                    )
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain is None:
                    continue
                # np.random.<legacy>(...) / numpy.random.<legacy>(...)
                if (
                    len(chain) >= 3
                    and chain[-2] == "random"
                    and chain[-1] in _LEGACY_NP_RANDOM
                ):
                    yield self.diagnostic(
                        ctx, node,
                        f"legacy global-state RNG 'np.random.{chain[-1]}'; "
                        "derive a Generator via repro.utils.rng "
                        "(RandomStreams / as_generator)",
                    )
                # default_rng() with no arguments = OS-entropy seed.
                elif chain[-1] == "default_rng" and not node.args and not node.keywords:
                    yield self.diagnostic(
                        ctx, node,
                        "default_rng() without a seed is a fresh "
                        "OS-entropy stream on every call; pass a seed or "
                        "a SeedSequence from repro.utils.rng",
                    )


#: Methods where mutating a frozen instance is legitimate: dataclasses'
#: own canonicalization hook, and pickle's state-restore protocol.
_FROZEN_MUTATION_OK = {"__post_init__", "__setstate__", "__new__"}


@register
class FrozenMutationRule(Rule):
    """RP003 — ``object.__setattr__`` outside ``__post_init__``."""

    code = "RP003"
    name = "frozen-mutation"
    rationale = (
        "Frozen dataclasses (OptimizerConfig, SlotTrace, DispatcherSpec) "
        "are shared across slots and pickled into pool workers on the "
        "promise they never change. object.__setattr__ outside "
        "__post_init__ breaks that promise invisibly: caches keyed on "
        "config identity go stale and telemetry records mutate after "
        "being written. Build a new instance (dataclasses.replace) "
        "instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, enclosing=None)

    def _walk(
        self, ctx: FileContext, node: ast.AST, enclosing: Optional[str]
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            scope = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            elif isinstance(child, ast.Call):
                chain = _attribute_chain(child.func)
                if (
                    chain == ["object", "__setattr__"]
                    and enclosing not in _FROZEN_MUTATION_OK
                ):
                    where = (
                        f"in {enclosing!r}" if enclosing else "at module scope"
                    )
                    yield self.diagnostic(
                        ctx, child,
                        f"object.__setattr__ {where} mutates a frozen "
                        "instance; only __post_init__/__setstate__ may do "
                        "this — use dataclasses.replace to derive a new "
                        "instance",
                    )
            yield from self._walk(ctx, child, scope)
