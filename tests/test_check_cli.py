"""`repro check`: the umbrella gate over lint + arch + audit + certify."""

import json

import pytest

from repro.analysis.cli import CHECK_NAMES, run_checks
from repro.cli import main

DIRTY = "def check(a):\n    return a == 0.0\n"


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(DIRTY)
    return pkg


class TestRunChecks:
    def test_static_checks_on_src_pass(self):
        code, report = run_checks(["src"], skip=("audit", "certify"))
        assert code == 0
        assert report["summary"]["ran"] == ["lint", "arch"]
        assert report["summary"]["skipped"] == ["audit", "certify"]
        assert report["checks"]["lint"]["exit_code"] == 0
        assert report["checks"]["arch"]["exit_code"] == 0
        assert report["checks"]["audit"] == {"skipped": True}

    def test_worst_of_exit_code(self, dirty_tree):
        # Lint fails on the fixture; arch is clean there: worst wins.
        code, report = run_checks(
            [str(dirty_tree)], skip=("audit", "certify"),
        )
        assert code == 1
        assert report["checks"]["lint"]["exit_code"] == 1
        assert report["summary"]["exit_code"] == 1

    def test_check_order_is_stable(self):
        assert CHECK_NAMES == ("lint", "arch", "audit", "certify")


class TestCheckCli:
    def test_text_output_and_exit(self, capsys):
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
        ]) == 0
        out = capsys.readouterr().out
        assert "lint" in out and "arch" in out
        assert "skipped" in out
        assert "check: exit 0" in out

    def test_json_report_shape(self, capsys):
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["checks"]) == set(CHECK_NAMES)
        assert payload["summary"]["exit_code"] == 0
        arch = payload["checks"]["arch"]
        assert arch["findings"] == []
        assert arch["summary"]["errors"] == 0

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "check-report.json"
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["ran"] == ["lint", "arch"]
        capsys.readouterr()

    def test_findings_fail_the_gate(self, dirty_tree, capsys):
        assert main([
            "check", str(dirty_tree),
            "--skip", "audit", "--skip", "certify",
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_certify_slots_exits_two(self, capsys):
        assert main(["check", "--certify-slots", "0"]) == 2
        assert "certify-slots" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["--slot", "24"], "--slot"),
        (["--scenario", "section7", "--slot", "7"], "--slot"),
        (["--certify-slots", "25"], "--certify-slots"),
        (["--scenario", "section5", "--certify-slots", "2"], "--certify-slots"),
    ])
    def test_slots_past_the_trace_exit_two(self, argv, flag, capsys):
        assert main(["check", "src", *argv]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "check: exit" not in captured.out

    def test_solver_checks_run(self, capsys):
        """Smoke the audit + certify legs on the default scenario."""
        assert main([
            "check", "src", "--skip", "lint", "--skip", "arch",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit" in out and "certify" in out
