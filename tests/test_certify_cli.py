"""`repro certify` CLI: exit codes, JSON output, report files, catalog."""

import json

import pytest

from repro.cli import main


class TestExitCodes:
    def test_acceptance_section6_slot0_is_clean(self, capsys):
        """Acceptance: the section-VI day's first slot certifies clean."""
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "solve(s) certified" in out
        assert "0 error(s)" in out

    def test_section5_certifies_clean(self, capsys):
        assert main(["certify", "--scenario", "section5"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_negative_slot_exits_two(self, capsys):
        assert main(["certify", "--slot", "-1"]) == 2
        assert "--slot" in capsys.readouterr().err

    def test_zero_slots_exits_two(self, capsys):
        assert main(["certify", "--slots", "0"]) == 2
        assert "--slots" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--scenario", "section6", "--slot", "99"],
        ["--scenario", "section6", "--slot", "24"],
        ["--scenario", "section7", "--slots", "8"],
        ["--scenario", "section5", "--slots", "2"],
    ])
    def test_slots_past_the_trace_exit_two(self, argv, capsys):
        # The trace wraps modulo its length; solving past it would
        # certify re-runs of earlier slots.
        assert main(["certify", *argv]) == 2
        captured = capsys.readouterr()
        assert argv[2] in captured.err
        assert "certified" not in captured.out

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        assert main(["certify", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestBackends:
    def test_sparse_path_certifies_clean(self, capsys):
        assert main(["certify", "--sparse"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_simplex_backend_certifies_clean(self, capsys):
        # The dense simplex attaches no duals, so the dual families
        # skip; the primal families must still come back clean.
        assert main(["certify", "--lp-method", "simplex"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_multi_slot_run_counts_all_solves(self, capsys):
        assert main(["certify", "--slots", "3"]) == 0
        out = capsys.readouterr().out
        assert "0..2" in out
        assert "0 error(s)" in out


class TestJsonFormat:
    def test_json_report_shape(self, capsys):
        assert main(["certify", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["details"]["scenario"] == "section6"
        assert payload["details"]["slots_certified"] == [0]
        assert payload["details"]["solves_certified"] >= 1

    def test_out_writes_json_alongside_text(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["certify", "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["errors"] == 0
        # stdout stays in text mode
        assert "solve(s) certified" in capsys.readouterr().out


class TestListChecks:
    def test_catalog_lists_all_codes(self, capsys):
        assert main(["certify", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in ("CT010", "CT011", "CT020", "CT021", "CT030",
                     "CT031", "CT040", "CT041", "CT051"):
            assert code in out
        assert "CT050" not in out


@pytest.mark.parametrize("scenario", ["section5", "section6", "section7"])
def test_every_scenario_certifies_without_errors(scenario, capsys):
    """No canned experiment ships a solve the certifier rejects."""
    assert main(["certify", "--scenario", scenario]) == 0
    capsys.readouterr()
