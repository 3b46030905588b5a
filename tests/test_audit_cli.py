"""`repro audit` CLI: exit codes, JSON output, report files, catalog."""

import json

import pytest

from repro.cli import main


class TestExitCodes:
    def test_acceptance_section6_default_is_clean(self, capsys):
        """Acceptance: the section-VI default topology audits clean."""
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "section6 slot 0:" in out
        assert "0 error(s)" in out

    def test_section7_loose_default_big_warns_but_passes(self, capsys):
        # DEFAULT_BIG is far above the section-VII data-driven minima:
        # warnings, not errors, so the gate stays green.
        assert main(["audit", "--scenario", "section7"]) == 0
        out = capsys.readouterr().out
        assert "MD010" in out
        assert "0 error(s)" in out

    def test_too_small_big_fails_gate(self, capsys):
        assert main([
            "audit", "--scenario", "section7", "--big", "1e-9",
        ]) == 1
        assert "MD011" in capsys.readouterr().out

    def test_negative_slot_exits_two(self, capsys):
        assert main(["audit", "--slot", "-1"]) == 2
        assert "--slot" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,slot", [
        ("section5", 1), ("section6", 24), ("section6", 99), ("section7", 7),
    ])
    def test_slot_past_the_trace_exits_two(self, scenario, slot, capsys):
        # The trace wraps modulo its length; a later slot must not
        # silently audit an earlier slot's data.
        assert main(["audit", "--scenario", scenario, "--slot", str(slot)]) == 2
        captured = capsys.readouterr()
        assert "--slot" in captured.err
        assert f"{scenario} slot" not in captured.out

    def test_last_slot_is_audited(self, capsys):
        assert main(["audit", "--scenario", "section7", "--slot", "6"]) == 0
        assert "section7 slot 6:" in capsys.readouterr().out

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        assert main(["audit", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestJsonFormat:
    def test_json_report_shape(self, capsys):
        assert main([
            "audit", "--scenario", "section7", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["warnings"] >= 1
        assert {f["code"] for f in payload["findings"]} >= {"MD010"}
        assert "tightened_big" in payload["details"]
        assert "lp" in payload["details"]["matrix"]

    def test_out_writes_json_alongside_text(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["audit", "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["errors"] == 0
        # stdout stays in text mode
        assert "section6 slot 0:" in capsys.readouterr().out


class TestThresholds:
    def test_bigm_ratio_limit_silences_looseness(self, capsys):
        assert main([
            "audit", "--scenario", "section7",
            "--bigm-ratio-limit", "1e12",
        ]) == 0
        assert "MD010" not in capsys.readouterr().out

    def test_tight_row_decades_limit_fires(self, capsys):
        # The section-VI LP legitimately spans a few decades; an
        # unreasonable limit must surface MD030 (warning, exit 0).
        assert main(["audit", "--row-decades-limit", "0.5"]) == 0
        assert "MD030" in capsys.readouterr().out


class TestListChecks:
    def test_catalog_lists_all_codes(self, capsys):
        assert main(["audit", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in ("MD010", "MD011", "MD012", "MD020", "MD030",
                     "MD036", "MD040", "MD045"):
            assert code in out


@pytest.mark.parametrize("scenario", ["section5", "section6", "section7"])
def test_every_scenario_audits_without_errors(scenario, capsys):
    """No canned experiment ships a formulation the auditor rejects."""
    assert main(["audit", "--scenario", scenario]) == 0
    capsys.readouterr()
