"""`repro lint` CLI: exit codes, JSON output, baselines, rule listing."""

import json

import pytest

from repro.analysis.report import (
    Finding,
    apply_baseline,
    read_baseline,
    write_baseline,
)
from repro.cli import main

DIRTY = "def check(a):\n    return a == 0.0\n"
CLEAN = "def check(a):\n    return abs(a) <= 1e-12\n"


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "clean.py").write_text(CLEAN)
    return pkg


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "RP001" in out
        assert "dirty.py:2" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/path"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_acceptance_gate_src_is_clean(self):
        """The merged tree passes its own gate: `repro lint src` == 0."""
        assert main(["lint", "src"]) == 0


class TestJsonFormat:
    def test_json_report_shape(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["files_checked"] == 2
        (finding,) = payload["findings"]
        assert finding["code"] == "RP001"
        assert finding["line"] == 2
        assert finding["path"].endswith("dirty.py")

    def test_json_clean_report(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestBaseline:
    def test_write_then_pass(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", str(dirty_tree),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert baseline.exists()
        capsys.readouterr()

        # Same tree, same baseline: the old finding no longer gates.
        assert main([
            "lint", str(dirty_tree), "--baseline", str(baseline)
        ]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_new_finding_still_fails(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(dirty_tree),
              "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()
        (dirty_tree / "fresh.py").write_text("b = x != 2.5\n")
        assert main([
            "lint", str(dirty_tree), "--baseline", str(baseline)
        ]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "dirty.py" not in out  # absorbed by the baseline

    def test_write_baseline_requires_file(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, dirty_tree, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99, \"findings\": []}")
        assert main([
            "lint", str(dirty_tree), "--baseline", str(bad)
        ]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_baseline_is_a_multiset(self):
        from collections import Counter

        from repro.analysis.report import Baseline

        d = Finding(path="a.py", line=3, col=0, code="RP001", message="m")
        twin = Finding(path="a.py", line=3, col=4, code="RP001", message="m2")
        baseline = Baseline(entries=Counter({d.fingerprint: 1}))
        # Both findings share the fingerprint, but one entry absorbs only one.
        fresh, absorbed = apply_baseline([d, twin], baseline)
        assert absorbed == 1
        assert fresh == [twin]

    def test_roundtrip_preserves_fingerprints(self, tmp_path):
        findings = [
            Finding(path="a.py", line=3, col=1, code="RP002", message="x"),
            Finding(path="b.py", line=9, col=0, code="RP006", message="y"),
        ]
        path = tmp_path / "b.json"
        assert write_baseline(findings, str(path)) == 2
        loaded = read_baseline(str(path))
        assert len(loaded) == 2
        fresh, absorbed = apply_baseline(findings, loaded)
        assert fresh == [] and absorbed == 2

    def test_write_baseline_is_byte_stable(self, dirty_tree, tmp_path, capsys):
        """Regression: --write-baseline twice on an unchanged tree must
        produce byte-identical files (the multiset serialization is
        sorted, not dependent on traversal or caller order)."""
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for target in (first, second):
            assert main([
                "lint", str(dirty_tree),
                "--baseline", str(target), "--write-baseline",
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_write_baseline_order_independent(self, tmp_path):
        """The serialized baseline does not depend on input ordering —
        same multiset of findings, shuffled, gives the same bytes."""
        findings = [
            Finding(path="b.py", line=9, col=0, code="RP006", message="y"),
            Finding(path="a.py", line=3, col=4, code="RP001", message="m2"),
            Finding(path="a.py", line=3, col=1, code="RP002", message="x"),
            Finding(path="a.py", line=3, col=0, code="RP001", message="m"),
        ]
        forward = tmp_path / "forward.json"
        backward = tmp_path / "backward.json"
        write_baseline(findings, str(forward))
        write_baseline(list(reversed(findings)), str(backward))
        assert forward.read_bytes() == backward.read_bytes()
        # And the round trip still absorbs every finding.
        fresh, absorbed = apply_baseline(findings, read_baseline(str(forward)))
        assert fresh == [] and absorbed == 4


class TestListRules:
    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RP001", "RP002", "RP003", "RP004", "RP005", "RP006"):
            assert code in out
