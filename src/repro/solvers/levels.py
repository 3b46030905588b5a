"""Level-vector searches for multi-level TUFs.

The multi-level slot problem fixes, for each (request class, data
center) pair, which TUF level the optimizer *targets* (i.e. which
sub-deadline the delay constraint enforces and which utility value the
objective earns).  Once the level vector is fixed, the remaining problem
is the one-level LP.  Both searches here treat that LP as an oracle:

* :func:`branch_and_bound_levels` — exact depth-first branch-and-bound
  over level vectors (the optimizer's multi-level default), bounded at
  every node by the LP in which the free positions take their best
  case;
* :func:`coordinate_descent_levels` — cheap coordinate-descent local
  search, used as a heuristic ablation and as a fallback stage.

The MILP of :mod:`repro.core.formulation` selects levels inside one
program instead (the paper's formulation).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.solvers.tolerances import STRICT_TOL

__all__ = ["branch_and_bound_levels", "coordinate_descent_levels"]

Evaluator = Callable[[Tuple[int, ...]], float]


def _check_sizes(num_choices: Sequence[int]) -> List[int]:
    sizes = [int(n) for n in num_choices]
    if any(n < 1 for n in sizes):
        raise ValueError("every position needs at least one choice")
    return sizes


def branch_and_bound_levels(
    num_choices: Sequence[int],
    evaluate: Evaluator,
    max_evaluations: Optional[int] = None,
) -> Tuple[Optional[Tuple[int, ...]], float, int, bool]:
    """Maximize over level vectors exactly, by depth-first branch-and-bound.

    Parameters
    ----------
    num_choices:
        ``num_choices[p]`` is the number of admissible levels at
        position ``p``.
    evaluate:
        Node oracle.  It receives a *prefix*: the levels of positions
        ``0 .. len(prefix) - 1``; every later position is free.  It
        returns an upper bound on the value of every completion of the
        prefix (the optimizer's LP in which each free position takes
        its best case), the exact value for a full-length vector, and
        ``-inf`` when no completion is feasible.  A position with one
        choice is fixed without an evaluation of its own: its best case
        is its only value.
    max_evaluations:
        Oracle-call budget; ``None`` means unbounded.

    Children are visited depth first in level order, so ties resolve
    the same way on every run.  A node is pruned once its bound is no
    better than the incumbent plus ``STRICT_TOL`` (the slack of
    :class:`~repro.solvers.branch_bound.BranchAndBoundSolver` at
    ``rel_gap=0``); a leaf replaces the incumbent only when strictly
    better.

    Returns
    -------
    (best_vector, best_value, evaluations, exhausted)
        ``best_vector`` is ``None`` when no leaf is feasible.
        ``exhausted`` is ``False`` when the budget ran out with nodes
        left to evaluate; the vector is then only the best one seen.
    """
    sizes = _check_sizes(num_choices)
    width = len(sizes)

    def extend(prefix: Tuple[int, ...]) -> Tuple[int, ...]:
        while len(prefix) < width and sizes[len(prefix)] == 1:
            prefix += (0,)
        return prefix

    best_vector: Optional[Tuple[int, ...]] = None
    best_value = -math.inf
    evaluations = 0
    # Depth-first stack of (prefix, the parent's bound).
    stack: List[Tuple[Tuple[int, ...], float]] = [(extend(()), math.inf)]
    while stack:
        prefix, bound = stack.pop()
        if bound <= best_value + STRICT_TOL:
            continue
        if max_evaluations is not None and evaluations >= max_evaluations:
            return best_vector, best_value, evaluations, False
        value = evaluate(prefix)
        evaluations += 1
        if len(prefix) == width:
            if value > best_value:
                best_vector, best_value = prefix, value
            continue
        if value <= best_value + STRICT_TOL:
            continue
        depth = len(prefix)
        for level in reversed(range(sizes[depth])):
            stack.append((extend(prefix + (level,)), value))
    return best_vector, best_value, evaluations, True


def coordinate_descent_levels(
    num_choices: Sequence[int],
    evaluate: Evaluator,
    initial: Optional[Sequence[int]] = None,
    max_sweeps: int = 10,
) -> Tuple[Tuple[int, ...], float, int]:
    """Maximize ``evaluate(levels)`` by single-coordinate moves.

    Parameters
    ----------
    num_choices:
        ``num_choices[p]`` is the number of admissible levels at
        position ``p``; candidate vectors satisfy
        ``0 <= levels[p] < num_choices[p]``.
    evaluate:
        Objective oracle (an LP solve in the optimizer); larger is
        better.  May return ``-inf`` for infeasible vectors.
    initial:
        Starting vector; defaults to all zeros (every pair targeting its
        highest-value level).
    max_sweeps:
        Full coordinate sweeps before giving up on convergence.

    Returns
    -------
    (best_vector, best_value, evaluations)
    """
    sizes = _check_sizes(num_choices)
    current: List[int] = list(initial) if initial is not None else [0] * len(sizes)
    if len(current) != len(sizes):
        raise ValueError("initial vector length mismatch")
    for p, (v, n) in enumerate(zip(current, sizes)):
        if not 0 <= v < n:
            raise ValueError(f"initial[{p}]={v} out of range [0, {n})")

    evaluations = 0
    best_value = evaluate(tuple(current))
    evaluations += 1

    for _ in range(max_sweeps):
        improved = False
        for p in range(len(sizes)):
            original = current[p]
            for candidate in range(sizes[p]):
                if candidate == original:
                    continue
                current[p] = candidate
                value = evaluate(tuple(current))
                evaluations += 1
                if value > best_value + STRICT_TOL:
                    best_value = value
                    original = candidate
                    improved = True
            current[p] = original
        if not improved:
            break
    return tuple(current), best_value, evaluations
