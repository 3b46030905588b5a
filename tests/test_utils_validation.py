"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_finite,
    check_nonnegative,
    check_positive,
    check_probability,
    check_shape,
    check_strictly_increasing,
)


class TestCheckFinite:
    def test_accepts_scalars(self):
        assert check_finite(3.0, "x") == 3.0

    def test_accepts_arrays(self):
        out = check_finite([1.0, 2.0], "x")
        assert out.tolist() == [1.0, 2.0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_finite(float("nan"), "x")

    def test_rejects_inf_inside_array(self):
        with pytest.raises(ValueError, match="x"):
            check_finite([1.0, np.inf], "x")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_nonnegative(-1e-9, "x")

    def test_rejects_negative_in_matrix(self):
        with pytest.raises(ValueError):
            check_nonnegative([[1.0, -2.0]], "x")


class TestCheckPositive:
    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            check_positive(0.0, "x")

    def test_accepts_positive_array(self):
        assert check_positive([1.0, 2.0], "x").shape == (2,)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability(1.0001, "p")


class TestCheckShape:
    def test_accepts_matching(self):
        arr = check_shape(np.zeros((2, 3)), (2, 3), "m")
        assert arr.shape == (2, 3)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_shape(np.zeros((2, 3)), (3, 2), "m")


class TestCheckStrictlyIncreasing:
    def test_accepts_increasing(self):
        out = check_strictly_increasing([1.0, 2.0, 5.0], "d")
        assert out.size == 3

    def test_accepts_singleton(self):
        assert check_strictly_increasing([4.0], "d").size == 1

    def test_rejects_equal_neighbours(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_strictly_increasing([1.0, 1.0], "d")

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            check_strictly_increasing([2.0, 1.0], "d")

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_strictly_increasing(np.zeros((2, 2)), "d")


NAN, INF = float("nan"), float("inf")

#: (value, outcome of check_finite, check_nonnegative, check_positive,
#: check_probability): True accepts; a string is the rejection message's
#: condition ("x must <condition>, got <repr(value)>").
VALIDATION_TABLE = [
    (2, True, True, True, "lie in [0, 1]"),
    (0, True, True, "be strictly positive", True),
    (-1, True, "be non-negative", "be strictly positive", "lie in [0, 1]"),
    (0.5, True, True, True, True),
    (1.0, True, True, True, True),
    (1.5, True, True, True, "lie in [0, 1]"),
    (-0.0, True, True, "be strictly positive", True),
    (NAN, "be finite", "be finite", "be finite", "be finite"),
    (INF, "be finite", "be finite", "be finite", "be finite"),
    (-INF, "be finite", "be finite", "be finite", "be finite"),
    (np.array(0.25), True, True, True, True),
    (np.array(-0.0), True, True, "be strictly positive", True),
    (np.array(-2.0), True, "be non-negative", "be strictly positive", "lie in [0, 1]"),
    (np.array(NAN), "be finite", "be finite", "be finite", "be finite"),
    ([0.0, 1.0], True, True, "be strictly positive", True),
    ([0.5, 2.0], True, True, True, "lie in [0, 1]"),
    ([1.0, -3.0], True, "be non-negative", "be strictly positive", "lie in [0, 1]"),
    ([1.0, INF], "be finite", "be finite", "be finite", "be finite"),
    ([[0.5, NAN]], "be finite", "be finite", "be finite", "be finite"),
    ([], True, True, True, True),
    (np.zeros((0, 3)), True, True, True, True),
]

CHECKS = [check_finite, check_nonnegative, check_positive, check_probability]


@pytest.mark.parametrize("row", VALIDATION_TABLE, ids=lambda row: repr(row[0]))
@pytest.mark.parametrize("column", range(len(CHECKS)),
                         ids=[check.__name__ for check in CHECKS])
def test_validation_table(row, column):
    value, outcome = row[0], row[1 + column]
    check = CHECKS[column]
    if outcome is True:
        out = check(value, "x")
        expected = np.asarray(value, dtype=float)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
    else:
        with pytest.raises(ValueError) as excinfo:
            check(value, "x")
        assert str(excinfo.value) == f"x must {outcome}, got {value!r}"
