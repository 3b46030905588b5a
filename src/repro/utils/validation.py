"""Lightweight argument validation helpers.

Every public constructor in the library validates its numeric inputs with
these helpers so that configuration errors surface at build time rather
than as NaNs deep inside a solver run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "check_finite",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_strictly_increasing",
]


def check_finite(value, name: str) -> np.ndarray:
    """Return ``value`` as an ndarray, raising ``ValueError`` on NaN/inf."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return arr


def check_nonnegative(value, name: str) -> np.ndarray:
    """Return ``value`` as an ndarray, raising if any entry is negative."""
    arr = check_finite(value, name)
    if (arr < 0).any():
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return arr


def check_positive(value, name: str) -> np.ndarray:
    """Return ``value`` as an ndarray, raising unless all entries are > 0."""
    arr = check_finite(value, name)
    if (arr <= 0).any():
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return arr


def check_probability(value, name: str) -> np.ndarray:
    """Return ``value`` as an ndarray constrained to [0, 1]."""
    arr = check_finite(value, name)
    if (arr < 0).any() or (arr > 1).any():
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return arr


def check_shape(arr: np.ndarray, shape: Sequence[int], name: str) -> np.ndarray:
    """Raise ``ValueError`` unless ``arr.shape == tuple(shape)``."""
    arr = np.asarray(arr)
    if arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    return arr


def check_strictly_increasing(values: Iterable[float], name: str) -> np.ndarray:
    """Raise ``ValueError`` unless ``values`` is strictly increasing."""
    arr = check_finite(list(values), name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size >= 2 and np.any(np.diff(arr) <= 0):
        raise ValueError(f"{name} must be strictly increasing, got {arr!r}")
    return arr
