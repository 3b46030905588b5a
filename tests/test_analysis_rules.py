"""Fixture tests for every reprolint rule: fires on the violation,
stays silent on the compliant rewrite, and honors suppressions."""

import ast

import pytest

from repro.analysis import Rule, all_rules, get_rule, register
from repro.analysis.runner import FileContext, lint_source
from repro.analysis.suppression import (
    SuppressionError,
    collect_suppressions,
)


def codes(report):
    return [d.code for d in report.findings]


def run_rule(code, source, path="src/repro/module.py"):
    """Lint ``source`` with only the one rule under test."""
    return lint_source(source, path=path, rules=[get_rule(code)])


class TestRegistry:
    def test_all_ten_domain_rules_registered(self):
        registered = {rule.code for rule in all_rules()}
        assert {"RP001", "RP002", "RP003", "RP004", "RP005",
                "RP006", "RP007", "RP008", "RP009", "RP010"} <= registered

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.rationale, rule.code

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clone(Rule):
                code = "RP001"
                name = "clone"

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError, match="RPxxx"):
            @register
            class Unnumbered(Rule):
                code = "X1"
                name = "unnumbered"

    def test_unknown_lookup(self):
        with pytest.raises(KeyError, match="RP999"):
            get_rule("RP999")


class TestRP001FloatEquality:
    def test_fires_on_float_literal_eq(self):
        report = run_rule("RP001", "if a == 0.0:\n    pass\n")
        assert codes(report) == ["RP001"]

    def test_fires_on_not_eq_and_reversed_operands(self):
        report = run_rule("RP001", "flag = 1.0 != scale\n")
        assert codes(report) == ["RP001"]

    def test_fires_on_negative_literal_and_float_cast(self):
        assert codes(run_rule("RP001", "b = x == -2.5\n")) == ["RP001"]
        assert codes(run_rule("RP001", "b = x == float('inf')\n")) == ["RP001"]

    def test_fires_inside_comparison_chain(self):
        report = run_rule("RP001", "b = 0 < x == 1.5\n")
        assert codes(report) == ["RP001"]

    def test_silent_on_int_comparison(self):
        assert run_rule("RP001", "if status == 0:\n    pass\n").clean

    def test_silent_on_inequality_guard(self):
        assert run_rule("RP001", "if total <= 0.0:\n    return 0.0\n").clean

    def test_silent_on_isclose(self):
        src = "import math\nok = math.isclose(a, 0.0, abs_tol=1e-12)\n"
        assert run_rule("RP001", src).clean


class TestRP002UnseededRng:
    def test_fires_on_legacy_global(self):
        report = run_rule("RP002", "import numpy as np\nnp.random.seed(0)\n")
        assert codes(report) == ["RP002"]

    def test_fires_on_legacy_distribution_call(self):
        report = run_rule(
            "RP002", "import numpy as np\nx = np.random.normal(0, 1, 10)\n"
        )
        assert codes(report) == ["RP002"]

    def test_fires_on_unseeded_default_rng(self):
        report = run_rule(
            "RP002", "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert codes(report) == ["RP002"]

    def test_fires_on_stdlib_random_import(self):
        assert codes(run_rule("RP002", "import random\n")) == ["RP002"]
        assert codes(run_rule(
            "RP002", "from random import choice\n"
        )) == ["RP002"]

    def test_silent_on_seeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert run_rule("RP002", src).clean

    def test_silent_on_generator_methods(self):
        src = (
            "from repro.utils.rng import as_generator\n"
            "rng = as_generator(7)\n"
            "x = rng.normal(0, 1, 10)\n"
        )
        assert run_rule("RP002", src).clean

    def test_silent_inside_rng_home_module(self):
        src = "import numpy as np\nnp.random.default_rng()\n"
        report = run_rule("RP002", src, path="src/repro/utils/rng.py")
        assert report.clean

    def test_silent_on_unrelated_random_attribute(self):
        # SystemRandom via a non-numpy chain of depth 2 is not legacy use.
        assert run_rule("RP002", "x = obj.random()\n").clean


FROZEN_VIOLATION = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class Config:
    tol: float

    def loosen(self):
        object.__setattr__(self, "tol", self.tol * 10)
"""

FROZEN_OK = """\
from dataclasses import dataclass
import numpy as np

@dataclass(frozen=True)
class Trace:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)
"""


class TestRP003FrozenMutation:
    def test_fires_outside_post_init(self):
        report = run_rule("RP003", FROZEN_VIOLATION)
        assert codes(report) == ["RP003"]
        assert "loosen" in report.findings[0].message

    def test_fires_at_module_scope(self):
        src = "object.__setattr__(config, 'tol', 1.0)\n"
        report = run_rule("RP003", src)
        assert codes(report) == ["RP003"]
        assert "module scope" in report.findings[0].message

    def test_silent_in_post_init_and_setstate(self):
        assert run_rule("RP003", FROZEN_OK).clean

    def test_silent_on_plain_setattr(self):
        assert run_rule("RP003", "setattr(obj, 'a', 1)\n").clean


SOLVER_VIOLATION = """\
class GradientSolver:
    def solve(self, lp):
        return lp
"""

SOLVER_OK = """\
def solve_lp(lp, method="simplex", state=None, collector=None):
    return lp

class GradientSolver:
    def solve(self, lp, state=None, collector=None):
        return lp

class Helper:
    def solve(self, puzzle):  # not a *Solver class: out of contract scope
        return puzzle

def _solve_inner(lp):  # private helper, not an entry point
    return lp
"""


class TestRP004SolverContract:
    def test_fires_on_method_missing_contract(self):
        report = run_rule(
            "RP004", SOLVER_VIOLATION, path="src/repro/solvers/gradient.py"
        )
        assert codes(report) == ["RP004"]
        assert "GradientSolver.solve" in report.findings[0].message

    def test_fires_on_module_function_missing_contract(self):
        src = "def solve_qp(qp, method='x'):\n    return qp\n"
        report = run_rule("RP004", src, path="src/repro/solvers/qp.py")
        assert codes(report) == ["RP004"]

    def test_silent_on_conforming_module(self):
        report = run_rule(
            "RP004", SOLVER_OK, path="src/repro/solvers/gradient.py"
        )
        assert report.clean

    def test_out_of_scope_module_ignored(self):
        report = run_rule("RP004", SOLVER_VIOLATION, path="src/repro/sim/x.py")
        assert report.clean


POOL_VIOLATION = """\
from concurrent.futures import ProcessPoolExecutor

def run(tasks):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(lambda t: t + 1, task) for task in tasks]
    return futures
"""

POOL_NESTED_DEF = """\
def run(pool, tasks):
    def work(task):
        return task + 1
    return [pool.submit(work, task) for task in tasks]
"""

POOL_OK = """\
def work(task):
    return task + 1

def run(pool, tasks):
    return [pool.submit(work, task) for task in tasks]
"""


class TestRP005PoolPicklability:
    def test_fires_on_lambda_to_submit(self):
        report = run_rule("RP005", POOL_VIOLATION)
        assert codes(report) == ["RP005"]
        assert "lambda" in report.findings[0].message

    def test_fires_on_nested_def_to_submit(self):
        report = run_rule("RP005", POOL_NESTED_DEF)
        assert codes(report) == ["RP005"]
        assert "work" in report.findings[0].message

    def test_fires_on_lambda_to_pool_map(self):
        src = "results = pool.map(lambda x: x * 2, items)\n"
        assert codes(run_rule("RP005", src)) == ["RP005"]

    def test_fires_on_lambda_in_parallel_run_simulation(self):
        src = (
            "parallel_run_simulation(topo, spec, trace, market,\n"
            "                        factory=lambda t: t)\n"
        )
        assert codes(run_rule("RP005", src)) == ["RP005"]

    def test_silent_on_module_level_function(self):
        assert run_rule("RP005", POOL_OK).clean

    def test_silent_on_non_pool_map(self):
        # .map on something that is not a pool/executor (e.g. pandas-ish)
        assert run_rule("RP005", "df.map(lambda x: x + 1)\n").clean


SWALLOW_VIOLATION = """\
def solve(lp, state=None, collector=None):
    try:
        return inner(lp)
    except Exception:
        return None
"""

SWALLOW_OK = """\
import warnings

def solve(lp, state=None, collector=None):
    try:
        return inner(lp)
    except ValueError:
        return None

def chain(lp, failures):
    try:
        return inner(lp)
    except Exception as exc:
        failures.append(str(exc))
        raise
"""

SWALLOW_RECORDED = """\
def chain(lp, stats):
    try:
        return inner(lp)
    except Exception as exc:
        stats.failure = str(exc)
        return None
"""


class TestRP006SwallowedException:
    def test_fires_on_swallowed_broad_except(self):
        report = run_rule(
            "RP006", SWALLOW_VIOLATION, path="src/repro/solvers/x.py"
        )
        assert codes(report) == ["RP006"]

    def test_bare_except_fires_everywhere(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        report = run_rule("RP006", src, path="src/repro/workload/x.py")
        assert codes(report) == ["RP006"]

    def test_silent_on_narrow_except(self):
        report = run_rule("RP006", SWALLOW_OK, path="src/repro/solvers/x.py")
        assert report.clean

    def test_silent_when_failure_recorded(self):
        report = run_rule(
            "RP006", SWALLOW_RECORDED, path="src/repro/core/x.py"
        )
        assert report.clean

    def test_broad_except_out_of_scope_ignored(self):
        report = run_rule(
            "RP006", SWALLOW_VIOLATION, path="src/repro/workload/x.py"
        )
        assert report.clean


MUTABLE_DEFAULT_VIOLATION = """\
def collect(items, bucket=[]):
    bucket.extend(items)
    return bucket
"""

MUTABLE_DEFAULT_OK = """\
def collect(items, bucket=None, tol=1e-9, tag=(), names=frozenset()):
    if bucket is None:
        bucket = []
    bucket.extend(items)
    return bucket
"""


class TestRP007MutableDefault:
    def test_fires_on_list_literal_default(self):
        report = run_rule("RP007", MUTABLE_DEFAULT_VIOLATION)
        assert codes(report) == ["RP007"]
        assert "bucket" in report.findings[0].message

    def test_fires_on_dict_and_set_literals(self):
        assert codes(run_rule("RP007", "def f(a, m={}):\n    pass\n")) == ["RP007"]
        assert codes(run_rule("RP007", "def f(a, s={1}):\n    pass\n")) == ["RP007"]

    def test_fires_on_empty_factory_call(self):
        src = "def f(out=list()):\n    pass\n"
        assert codes(run_rule("RP007", src)) == ["RP007"]

    def test_fires_on_keyword_only_default(self):
        src = "def f(a, *, cache={}):\n    pass\n"
        report = run_rule("RP007", src)
        assert codes(report) == ["RP007"]
        assert "cache" in report.findings[0].message

    def test_fires_in_lambda_and_method(self):
        assert codes(run_rule("RP007", "g = lambda xs=[]: xs\n")) == ["RP007"]
        src = "class C:\n    def add(self, xs=[]):\n        pass\n"
        assert codes(run_rule("RP007", src)) == ["RP007"]

    def test_silent_on_none_sentinel_and_immutables(self):
        assert run_rule("RP007", MUTABLE_DEFAULT_OK).clean

    def test_silent_on_nonempty_factory_call(self):
        # list(seed) re-evaluates per call only if seed is the literal; the
        # rule only targets the unambiguous empty-container spellings.
        assert run_rule("RP007", "def f(seed, xs=tuple('ab')):\n    pass\n").clean


DTYPE_VIOLATION = """\
import numpy as np

def margins(x) -> np.ndarray:
    \"\"\"Per-row slack values.\"\"\"
    return x
"""

DTYPE_OK = """\
import numpy as np

def margins(x) -> np.ndarray:
    \"\"\"Per-row slack values; float64.\"\"\"
    return x

def mask(x) -> np.ndarray:
    \"\"\"Active rows; dtype bool.\"\"\"
    return x

def _helper(x) -> np.ndarray:
    return x

def scalar(x) -> float:
    \"\"\"No array returned.\"\"\"
    return x
"""


class TestRP008ArrayDtypeContract:
    def test_fires_in_core_package(self):
        report = run_rule("RP008", DTYPE_VIOLATION, path="src/repro/core/x.py")
        assert codes(report) == ["RP008"]
        assert "margins" in report.findings[0].message

    def test_fires_in_solvers_package(self):
        report = run_rule(
            "RP008", DTYPE_VIOLATION, path="src/repro/solvers/x.py"
        )
        assert codes(report) == ["RP008"]

    def test_fires_on_missing_docstring(self):
        src = "def rates(x) -> np.ndarray:\n    return x\n"
        report = run_rule("RP008", src, path="src/repro/core/x.py")
        assert codes(report) == ["RP008"]

    def test_silent_when_dtype_documented(self):
        report = run_rule("RP008", DTYPE_OK, path="src/repro/core/x.py")
        assert report.clean

    def test_silent_outside_numerical_packages(self):
        report = run_rule("RP008", DTYPE_VIOLATION, path="src/repro/sim/x.py")
        assert report.clean

    def test_silent_on_private_class_method(self):
        src = (
            "class _Cache:\n"
            "    def rows(self) -> np.ndarray:\n"
            "        return self._rows\n"
        )
        report = run_rule("RP008", src, path="src/repro/core/x.py")
        assert report.clean


class TestRP009ToleranceLiteral:
    def test_fires_on_comparison(self):
        report = run_rule(
            "RP009", "if gap <= 1e-06:\n    pass\n",
            path="src/repro/solvers/x.py",
        )
        assert codes(report) == ["RP009"]

    def test_fires_on_additive_nudge(self):
        report = run_rule(
            "RP009", "bound = b + 1e-08\n", path="src/repro/core/x.py"
        )
        assert codes(report) == ["RP009"]

    def test_fires_on_augmented_assignment(self):
        report = run_rule(
            "RP009", "slack -= 1e-09\n", path="src/repro/solvers/x.py"
        )
        assert codes(report) == ["RP009"]

    def test_fires_on_negative_literal(self):
        report = run_rule(
            "RP009", "if r < -1e-06:\n    pass\n",
            path="src/repro/solvers/x.py",
        )
        assert codes(report) == ["RP009"]

    def test_nested_literal_reported_once(self):
        # The 1e-9 sits in both the Add and the enclosing Compare;
        # dedup by position keeps one finding.
        report = run_rule(
            "RP009", "if x <= base + 1e-09:\n    pass\n",
            path="src/repro/solvers/x.py",
        )
        assert codes(report) == ["RP009"]

    def test_silent_on_model_scale_constant(self):
        report = run_rule(
            "RP009", "if load > 0.5:\n    pass\n",
            path="src/repro/core/x.py",
        )
        assert report.clean

    def test_silent_on_multiplicative_scaling(self):
        # 1e-6 as a scale factor is unit conversion, not a threshold.
        report = run_rule(
            "RP009", "atol = 1e-06 * scale\n", path="src/repro/solvers/x.py"
        )
        assert report.clean

    def test_silent_in_tolerance_home(self):
        report = run_rule(
            "RP009", "STRICT = 1e-12\nLOOSE = STRICT + 1e-06\n",
            path="src/repro/solvers/tolerances.py",
        )
        assert report.clean

    def test_silent_outside_numerical_packages(self):
        report = run_rule(
            "RP009", "if gap <= 1e-06:\n    pass\n",
            path="src/repro/market/x.py",
        )
        assert report.clean

    def test_suppression_honored(self):
        src = "if gap <= 1e-06:  # reprolint: disable=RP009\n    pass\n"
        report = run_rule("RP009", src, path="src/repro/solvers/x.py")
        assert report.clean
        assert report.suppressed == 1


DIV_PATH = "src/repro/core/x.py"


class TestRP010UnguardedDivision:
    def test_fires_on_bare_risky_name(self):
        report = run_rule("RP010", "y = x / rate\n", path=DIV_PATH)
        assert codes(report) == ["RP010"]

    def test_fires_on_attribute_and_subscript(self):
        report = run_rule(
            "RP010",
            "a = q / self.num_servers\nb = x / arrivals[k]\n",
            path=DIV_PATH,
        )
        assert codes(report) == ["RP010", "RP010"]

    def test_fires_in_queueing_and_stream(self):
        for path in ("src/repro/queueing/x.py", "src/repro/stream/x.py"):
            report = run_rule("RP010", "y = x / total_load\n", path=path)
            assert codes(report) == ["RP010"], path

    def test_silent_on_clamped_denominator(self):
        src = (
            "a = x / max(rate, 1e-9)\n"
            "b = x / np.maximum(capacity, eps)\n"
            "c = x / (rate + 1e-9)\n"
        )
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_silent_under_positive_branch(self):
        src = "if rate > 0:\n    y = x / rate\n"
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_silent_after_early_return_guard(self):
        src = (
            "def f(rate):\n"
            "    if rate == 0:\n"
            "        return 0.0\n"
            "    return x / rate\n"
        )
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_silent_inside_np_where_select(self):
        src = "y = np.where(rate > 0, x / rate, 0.0)\n"
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_silent_after_assert(self):
        src = "assert rate > 0\ny = x / rate\n"
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_silent_in_guarded_ifexp(self):
        src = "y = x / rate if rate else 0.0\n"
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_check_positive_validates(self):
        src = (
            "def f(rate):\n"
            '    mu = check_positive(rate, "rate")\n'
            "    return x / mu + y / rate\n"
        )
        assert run_rule("RP010", src, path=DIV_PATH).clean

    def test_post_init_invariant_covers_methods(self):
        src = (
            "class Q:\n"
            "    def __post_init__(self):\n"
            '        check_positive(self.service_rate, "service_rate")\n'
            "        if self.num_servers < 1:\n"
            "            raise ValueError\n"
            "    @property\n"
            "    def rho(self):\n"
            "        return self.arrival / self.service_rate\n"
            "    @property\n"
            "    def per_server(self):\n"
            "        return self.rho / self.num_servers\n"
        )
        assert run_rule("RP010", src, path="src/repro/queueing/x.py").clean

    def test_guard_does_not_leak_into_other_function(self):
        src = (
            "def f(rate):\n"
            "    assert rate > 0\n"
            "    return x / rate\n"
            "def g(rate):\n"
            "    return x / rate\n"
        )
        report = run_rule("RP010", src, path=DIV_PATH)
        assert codes(report) == ["RP010"]
        assert report.findings[0].line == 5

    def test_silent_on_unrecognized_name(self):
        assert run_rule("RP010", "y = x / weight\n", path=DIV_PATH).clean

    def test_silent_outside_scoped_packages(self):
        report = run_rule(
            "RP010", "y = x / rate\n", path="src/repro/solvers/x.py"
        )
        assert report.clean

    def test_suppression_honored(self):
        src = "y = x / rate  # reprolint: disable=RP010\n"
        report = run_rule("RP010", src, path=DIV_PATH)
        assert report.clean
        assert report.suppressed == 1


class TestSuppression:
    def test_inline_suppression_silences_line(self):
        src = "if a == 0.0:  # reprolint: disable=RP001\n    pass\n"
        report = run_rule("RP001", src)
        assert report.clean
        assert report.suppressed == 1

    def test_suppression_is_code_specific(self):
        src = "if a == 0.0:  # reprolint: disable=RP002\n    pass\n"
        report = run_rule("RP001", src)
        assert codes(report) == ["RP001"]

    def test_multi_code_and_all(self):
        src_multi = "if a == 0.0:  # reprolint: disable=RP001,RP002\n    pass\n"
        assert run_rule("RP001", src_multi).clean
        src_all = "if a == 0.0:  # reprolint: disable=all\n    pass\n"
        assert run_rule("RP001", src_all).clean

    def test_file_wide_suppression(self):
        src = (
            "# reprolint: disable-file=RP001\n"
            "a = x == 0.0\n"
            "b = y != 1.5\n"
        )
        report = run_rule("RP001", src)
        assert report.clean
        assert report.suppressed == 2

    def test_directive_inside_string_is_inert(self):
        src = 's = "# reprolint: disable=RP001"\nb = a == 0.0\n'
        report = run_rule("RP001", src)
        assert codes(report) == ["RP001"]

    def test_malformed_directive_is_reported(self):
        with pytest.raises(SuppressionError):
            collect_suppressions("x = 1  # reprolint: disable=BOGUS\n")
        report = run_rule("RP001", "x = 1  # reprolint: disable=\n")
        assert codes(report) == ["RP000"]

    def test_suppression_counts_only_matching_line(self):
        src = (
            "a = x == 0.0  # reprolint: disable=RP001\n"
            "b = y == 0.0\n"
        )
        report = run_rule("RP001", src)
        assert codes(report) == ["RP001"]
        assert report.findings[0].line == 2
        assert report.suppressed == 1


class TestRunner:
    def test_syntax_error_becomes_rp000(self):
        report = lint_source("def broken(:\n", path="src/repro/x.py")
        assert codes(report) == ["RP000"]

    def test_self_lint_is_clean(self):
        """The analysis package passes its own rules (dogfood)."""
        from repro.analysis.runner import lint_paths
        report = lint_paths(["src/repro/analysis"])
        assert report.clean, [str(d) for d in report.findings]

    def test_whole_tree_is_clean(self):
        """Acceptance: `repro lint src` stays clean on the merged tree."""
        from repro.analysis.runner import lint_paths
        report = lint_paths(["src"])
        assert report.clean, [str(d) for d in report.findings]

    def test_missing_path_raises(self):
        from repro.analysis.runner import lint_paths
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])

    def test_windows_paths_normalized(self):
        report = lint_source(
            "class S(GradientSolver):\n    pass\n",
            path="src\\repro\\solvers\\x.py",
        )
        assert report.findings == []
        ctx = FileContext(
            path="src\\repro\\solvers\\x.py", source="", tree=ast.parse("")
        )
        assert ctx.in_package("solvers")
