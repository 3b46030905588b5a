"""`repro arch` CLI: exit codes, JSON shape, baselines, the API lock.

The negative paths at the bottom are the CI story: an injected
layering violation and an undeclared export must fail the gate with
actionable output.
"""

import json
from pathlib import Path

from repro.cli import main

LAYERED = {
    "pkg/low/impl.py": "def base():\n    return 1\n",
    "pkg/high/api.py": "from pkg.low.impl import base\n",
}

# A genuine import cycle: AR011 fires with no contract injection.
VIOLATING = {
    "pkg/low/impl.py": (
        "from pkg.high.api import top\n"
        "def base():\n    return top()\n"
    ),
    "pkg/high/api.py": (
        "from pkg.low.impl import base\n"
        "def top():\n    return 1\n"
    ),
}


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        target = path.parent
        while target != root:
            init = target / "__init__.py"
            if not init.exists():
                init.write_text("")
            target = target.parent
        path.write_text(source)
    return root


def orphan_free(root):
    """A usage tree importing every fixture module, so AR030/AR031
    findings never contaminate tests aimed at other rules."""
    usage = root / "consumers"
    usage.mkdir(exist_ok=True)
    lines = []
    for path in sorted(root.glob("pkg/**/*.py")):
        rel = path.relative_to(root)
        module = ".".join(rel.with_suffix("").parts)
        module = module.replace(".__init__", "")
        lines.append(f"import {module}\n")
    (usage / "use_all.py").write_text("".join(lines))
    return usage


def arch(root, *extra):
    usage = orphan_free(root)
    argv = ["arch", str(root), "--usage-path", str(usage), *extra]
    if "--api-baseline" not in extra:
        # Keep the repo's committed API_SURFACE.json (cwd default)
        # away from fixture trees; a missing file disables the diff.
        argv += ["--api-baseline", str(root / "API_SURFACE.json")]
    return main(argv)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, LAYERED)
        assert arch(tmp_path) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATING)
        assert arch(tmp_path) == 1
        assert "AR011" in capsys.readouterr().out  # the import cycle

    def test_missing_path_exits_two(self, capsys):
        assert main(["arch", "no/such/tree"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_catalog(self, capsys):
        assert main(["arch", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("AR010", "AR020", "AR030", "AR040"):
            assert code in out

    def test_acceptance_gate_src_is_clean(self):
        """The merged tree passes its own gate: `repro arch src` == 0."""
        assert main(["arch", "src"]) == 0


class TestJsonFormat:
    def test_json_report_shape(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATING)
        assert arch(tmp_path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] >= 1
        codes = {f["code"] for f in payload["findings"]}
        assert "AR011" in codes
        assert payload["details"]["modules"] >= 2

    def test_out_file_written(self, tmp_path, capsys):
        write_tree(tmp_path, LAYERED)
        out = tmp_path / "arch-report.json"
        assert arch(tmp_path, "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["findings"] == []
        capsys.readouterr()


class TestFindingsBaseline:
    def test_write_then_pass_then_regress(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATING)
        baseline = tmp_path / "arch-baseline.json"
        assert arch(
            tmp_path, "--baseline", str(baseline), "--write-baseline",
        ) == 0
        assert baseline.exists()
        capsys.readouterr()

        # Baselined findings no longer gate.
        assert arch(tmp_path, "--baseline", str(baseline)) == 0
        assert "baselined" in capsys.readouterr().out

        # A new violation (a second cycle) still fails against the
        # old baseline.
        (tmp_path / "pkg" / "c1.py").write_text(
            "from pkg.c2 import f\ndef g():\n    return f()\n"
        )
        (tmp_path / "pkg" / "c2.py").write_text(
            "from pkg.c1 import g\ndef f():\n    return g()\n"
        )
        assert arch(tmp_path, "--baseline", str(baseline)) == 1
        capsys.readouterr()

    def test_write_baseline_requires_file(self, tmp_path, capsys):
        write_tree(tmp_path, LAYERED)
        assert main(["arch", str(tmp_path), "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err


class TestApiBaselineFlow:
    def test_write_then_lock_then_drift(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import stable\n"
                "__all__ = [\"stable\"]\n"
            ),
            "pkg/sub/impl.py": (
                "def stable(x: int) -> int:\n    return x\n"
            ),
            "pkg/consume.py": "from pkg.sub import stable\n",
        })
        snapshot = tmp_path / "API_SURFACE.json"
        assert arch(
            tmp_path, "--api-baseline", str(snapshot),
            "--write-api-baseline",
        ) == 0
        assert "wrote API surface" in capsys.readouterr().out

        # Unchanged tree passes against its own snapshot.
        assert arch(tmp_path, "--api-baseline", str(snapshot)) == 0
        capsys.readouterr()

        # Signature drift fails with AR020.
        (tmp_path / "pkg" / "sub" / "impl.py").write_text(
            "def stable(x: int, y: int = 1) -> int:\n    return x + y\n"
        )
        assert arch(tmp_path, "--api-baseline", str(snapshot)) == 1
        assert "AR020" in capsys.readouterr().out

    def test_undeclared_export_fails_the_gate(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import stable\n"
                "__all__ = [\"stable\"]\n"
            ),
            "pkg/sub/impl.py": (
                "def stable(x: int) -> int:\n    return x\n"
            ),
            "pkg/consume.py": "from pkg.sub import stable\n",
        })
        snapshot = tmp_path / "API_SURFACE.json"
        assert arch(
            tmp_path, "--api-baseline", str(snapshot),
            "--write-api-baseline",
        ) == 0
        capsys.readouterr()

        (tmp_path / "pkg" / "sub" / "__init__.py").write_text(
            "from pkg.sub.impl import stable, fresh\n"
            "__all__ = [\"stable\", \"fresh\"]\n"
        )
        (tmp_path / "pkg" / "sub" / "impl.py").write_text(
            "def stable(x: int) -> int:\n    return x\n"
            "def fresh() -> int:\n    return 2\n"
        )
        (tmp_path / "pkg" / "consume.py").write_text(
            "from pkg.sub import stable, fresh\n"
        )
        assert arch(tmp_path, "--api-baseline", str(snapshot)) == 1
        assert "AR021" in capsys.readouterr().out

    def test_corrupt_api_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, LAYERED)
        bad = tmp_path / "API_SURFACE.json"
        bad.write_text("{not json")
        assert main([
            "arch", str(tmp_path), "--api-baseline", str(bad),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_committed_snapshot_matches_live_surface(self):
        """Byte-for-byte: regenerating API_SURFACE.json is a no-op.

        This is the committed lock the CI diff relies on — if it
        fails, run `repro arch --write-api-baseline` and review the
        diff."""
        from repro.analysis.arch import (
            build_api_surface,
            build_tree_index,
            render_api_surface,
        )

        live = render_api_surface(
            build_api_surface(build_tree_index(["src"]))
        )
        with open("API_SURFACE.json", "r", encoding="utf-8") as handle:
            committed = handle.read()
        assert committed == live


class TestInjectedRegression:
    def test_layering_violation_in_src_copy_fails(self, tmp_path, capsys):
        """CI story: an eager upward import fails the real contract."""
        src = tmp_path / "src"
        pkg = src / "repro" / "utils"
        pkg.mkdir(parents=True)
        (src / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "rogue.py").write_text(
            "from repro.core.plan import DispatchPlan\n"
        )
        core = src / "repro" / "core"
        core.mkdir()
        (core / "__init__.py").write_text("")
        (core / "plan.py").write_text(
            "class DispatchPlan:\n    pass\n"
        )
        usage = tmp_path / "consumers"
        usage.mkdir()
        (usage / "use.py").write_text(
            "import repro.utils.rogue\nimport repro.core.plan\n"
        )
        assert main([
            "arch", str(src), "--usage-path", str(usage),
        ]) == 1
        out = capsys.readouterr().out
        assert "AR010" in out
        assert "repro.utils.rogue -> repro.core.plan" in out


class TestUsagePaths:
    def test_usage_path_extends_the_default_roots(self, monkeypatch, capsys):
        # perfbench imports none of repro.solvers' exports; the default
        # roots (tests, benchmarks, examples) still count their imports.
        repo = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(repo)
        main(["arch", "src", "--usage-path", "perfbench"])
        out = capsys.readouterr().out
        assert "BranchAndBoundSolver" not in out
        assert "AR030" not in out
