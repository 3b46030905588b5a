"""The analysis engine: one registry keyed by code prefix, one finding
type, and per-target lazy rule loading."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analysis import Finding, Rule, all_rules, get_rule, register
from repro.analysis.engine import TARGETS


@pytest.mark.parametrize("prefix", ["RP", "MD", "CT", "AR"])
class TestRegistry:
    def test_rules_are_keyed_by_their_target_prefix(self, prefix):
        rules = all_rules(prefix)
        assert rules, prefix
        kind = next(t.kind for t in TARGETS if t.prefix == prefix)
        assert all_rules(kind) == rules
        assert [r.code for r in rules] == sorted(r.code for r in rules)
        for rule in rules:
            assert rule.code.startswith(prefix)
            assert all(code.startswith(prefix) for code in rule.codes)
            assert get_rule(rule.code) is rule

    def test_duplicate_code_rejected(self, prefix):
        lead = all_rules(prefix)[0]
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clone(Rule):
                code = lead.code
                codes = dict(lead.codes)
                name = "clone"

    def test_bad_prefix_rejected(self, prefix):
        with pytest.raises(ValueError, match=f"{prefix}xxx"):
            @register
            class Unprefixed(Rule):
                code = "XX001"
                name = "unprefixed"
        other = "MD" if prefix != "MD" else "CT"
        with pytest.raises(ValueError, match="bad code"):
            @register
            class Mixed(Rule):
                code = f"{prefix}998"
                codes = {f"{prefix}998": "lead", f"{other}998": "foreign"}
                name = "mixed"

    def test_unknown_code_lookup(self, prefix):
        with pytest.raises(KeyError, match=f"{prefix}999"):
            get_rule(f"{prefix}999")

    def test_finding_validation(self, prefix):
        with pytest.raises(ValueError, match="codes"):
            Finding(code=f"{prefix}1", message="m", component="x")
        with pytest.raises(ValueError, match="severity"):
            Finding(code=f"{prefix}010", message="m", severity="fatal",
                    component="x")
        other = "MD" if prefix != "MD" else "CT"
        for family in [r for r in all_rules(prefix) if r.codes][:1]:
            # A rule family may only emit its own codes.
            with pytest.raises(ValueError, match="unregistered"):
                family.finding(f"{other}010", "error", "x", "m")


def test_targets_fix_their_gates():
    gates = {t.prefix: t.gate for t in TARGETS}
    assert gates == {"RP": "any", "AR": "any", "MD": "error", "CT": "error"}
    warning = Finding(code="MD010", message="m", severity="warning",
                      component="x")
    for target in TARGETS:
        assert target.fails([warning]) is (target.gate == "any")
        assert not target.fails([])


def test_solve_path_hooks_do_not_load_lint_or_arch():
    """``plan_slot``'s audit/certify hooks import only their targets."""
    code = (
        "import sys\n"
        "import repro.analysis.model, repro.analysis.certify\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(("
        "'repro.analysis.rules', 'repro.analysis.runner', "
        "'repro.analysis.arch')))\n"
        "print(loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    ).stdout
    assert out.strip() == "[]"
