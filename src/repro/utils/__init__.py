"""Shared utilities: validation, RNG management, and table rendering."""

from repro.utils.validation import (
    check_finite,
    check_nonnegative,
    check_positive,
    check_probability,
    check_shape,
    check_strictly_increasing,
)
from repro.utils.rng import RandomStreams, as_generator
from repro.utils.tables import render_table
from repro.utils.ascii_plot import line_chart, sparkline

__all__ = [
    "sparkline",
    "line_chart",
    "check_finite",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_strictly_increasing",
    "RandomStreams",
    "as_generator",
    "render_table",
]
