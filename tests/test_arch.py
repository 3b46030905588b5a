"""Architecture auditor rules (AR0xx) over synthetic fixture trees.

Each rule family gets a positive fixture (the erosion is found) and a
negative fixture (legitimate code passes).  The contract is injected
per test — a node absent from ``layers`` is unconstrained, so fixtures
only declare what they exercise.  The real tree's acceptance gates
(self-layering, ``repro arch src`` exit 0) live at the bottom.
"""

from typing import Dict

import pytest

from repro.analysis import all_rules, get_rule
from repro.analysis.arch import (
    DEFAULT_CONTRACT,
    LayerContract,
    audit_tree,
    build_api_surface,
    build_tree_index,
    default_contract,
    render_api_surface,
)


def write_tree(root, files: Dict[str, str]):
    """Materialize ``{relative/path.py: source}`` under ``root``."""
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


def audit(root, *, contract=None, usage_paths=(), **kwargs):
    return audit_tree(
        [str(root)], contract=contract,
        usage_paths=[str(p) for p in usage_paths], **kwargs,
    )


def codes_of(report):
    return sorted(f.code for f in report.findings)


# --------------------------------------------------------------- AR010/011


class TestLayerContract:
    CONTRACT = LayerContract(layers={
        "low": frozenset(),
        "high": frozenset({"low"}),
    })

    def test_upward_eager_import_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/low/impl.py": "from pkg.high.api import top\n",
            "pkg/high/api.py": "def top():\n    return 1\n",
        })
        report = audit(tmp_path, contract=self.CONTRACT)
        findings = [f for f in report.findings if f.code == "AR010"]
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "pkg.low.impl -> pkg.high.api" in findings[0].component
        assert findings[0].path.endswith("impl.py")

    def test_allowed_edge_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/high/api.py": "from pkg.low.impl import base\n",
            "pkg/low/impl.py": "def base():\n    return 1\n",
        })
        report = audit(tmp_path, contract=self.CONTRACT)
        assert [f for f in report.findings if f.code == "AR010"] == []

    def test_lazy_import_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/low/impl.py": (
                "def lift():\n"
                "    from pkg.high.api import top\n"
                "    return top()\n"
            ),
            "pkg/high/api.py": "def top():\n    return 1\n",
        })
        report = audit(tmp_path, contract=self.CONTRACT)
        assert [f for f in report.findings if f.code == "AR010"] == []

    def test_type_checking_import_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/low/impl.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from pkg.high.api import Top\n"
            ),
            "pkg/high/api.py": "class Top:\n    pass\n",
        })
        report = audit(tmp_path, contract=self.CONTRACT)
        assert [f for f in report.findings if f.code == "AR010"] == []

    def test_sanctioned_exception_passes(self, tmp_path):
        contract = LayerContract(
            layers=dict(self.CONTRACT.layers),
            exceptions=frozenset({("pkg.low.impl", "pkg.high.api")}),
        )
        write_tree(tmp_path, {
            "pkg/low/impl.py": "from pkg.high.api import top\n",
            "pkg/high/api.py": "def top():\n    return 1\n",
        })
        report = audit(tmp_path, contract=contract)
        assert [f for f in report.findings if f.code == "AR010"] == []

    def test_import_cycle_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/a.py": "import pkg.b\n",
            "pkg/b.py": "import pkg.a\n",
        })
        report = audit(tmp_path)
        findings = [f for f in report.findings if f.code == "AR011"]
        assert len(findings) == 1
        assert "pkg.a" in findings[0].component
        assert "pkg.b" in findings[0].component

    def test_package_assembly_init_is_not_a_cycle(self, tmp_path):
        # `from pkg import helper` inside pkg/__init__.py resolves to
        # the submodule, not back to the package: no false cycle.
        write_tree(tmp_path, {
            "pkg/__init__.py": "from pkg import helper\n",
            "pkg/helper.py": "def aid():\n    return 1\n",
        })
        report = audit(tmp_path)
        assert [f for f in report.findings if f.code == "AR011"] == []


# --------------------------------------------------------------- AR020/021


SURFACE_TREE = {
    "pkg/__init__.py": (
        "from pkg.sub import stable\n"
        "__all__ = [\"sub\"]\n"
    ),
    "pkg/sub/__init__.py": (
        "from pkg.sub.impl import stable\n"
        "__all__ = [\"stable\"]\n"
    ),
    "pkg/sub/impl.py": "def stable(x: int) -> int:\n    return x\n",
}


class TestApiSurface:
    def baseline_for(self, tmp_path, files):
        write_tree(tmp_path, files)
        return build_api_surface(build_tree_index([str(tmp_path)]))

    def test_unchanged_surface_passes(self, tmp_path):
        baseline = self.baseline_for(tmp_path, SURFACE_TREE)
        report = audit(tmp_path, api_baseline=baseline)
        assert [f for f in report.findings if f.code.startswith("AR02")] \
            == []

    def test_removed_export_is_an_error(self, tmp_path):
        baseline = self.baseline_for(tmp_path, SURFACE_TREE)
        gone = dict(SURFACE_TREE)
        gone["pkg/sub/__init__.py"] = "__all__ = []\n"
        gone["pkg/sub/impl.py"] = "def _stable(x):\n    return x\n"
        other = write_tree(tmp_path / "after", gone)
        report = audit(other, api_baseline=baseline)
        findings = [f for f in report.findings if f.code == "AR020"]
        assert findings and findings[0].severity == "error"
        assert "pkg.sub.stable" in findings[0].component
        assert "refresh the" in findings[0].message

    def test_signature_change_is_an_error(self, tmp_path):
        baseline = self.baseline_for(tmp_path, SURFACE_TREE)
        changed = dict(SURFACE_TREE)
        changed["pkg/sub/impl.py"] = (
            "def stable(x: int, y: int = 0) -> int:\n    return x + y\n"
        )
        other = write_tree(tmp_path / "after", changed)
        report = audit(other, api_baseline=baseline)
        findings = [f for f in report.findings if f.code == "AR020"]
        assert findings and findings[0].severity == "error"

    def test_undeclared_export_is_a_warning(self, tmp_path):
        baseline = self.baseline_for(tmp_path, SURFACE_TREE)
        grown = dict(SURFACE_TREE)
        grown["pkg/sub/__init__.py"] = (
            "from pkg.sub.impl import stable, fresh\n"
            "__all__ = [\"stable\", \"fresh\"]\n"
        )
        grown["pkg/sub/impl.py"] = (
            "def stable(x: int) -> int:\n    return x\n"
            "def fresh() -> int:\n    return 2\n"
        )
        other = write_tree(tmp_path / "after", grown)
        report = audit(other, api_baseline=baseline)
        findings = [f for f in report.findings if f.code == "AR021"]
        assert findings and findings[0].severity == "warning"
        assert "pkg.sub.fresh" in findings[0].component

    def test_surface_render_is_byte_stable(self, tmp_path):
        write_tree(tmp_path, SURFACE_TREE)
        first = render_api_surface(
            build_api_surface(build_tree_index([str(tmp_path)]))
        )
        second = render_api_surface(
            build_api_surface(build_tree_index([str(tmp_path)]))
        )
        assert first == second
        assert first.endswith("\n")


# --------------------------------------------------------------- AR030/031


class TestDeadCode:
    def test_unused_export_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import forgotten\n"
                "__all__ = [\"forgotten\"]\n"
            ),
            "pkg/sub/impl.py": "def forgotten():\n    return 1\n",
        })
        report = audit(tmp_path)
        findings = [f for f in report.findings if f.code == "AR030"]
        assert len(findings) == 1
        assert "pkg.sub.forgotten" in findings[0].component
        assert findings[0].path.endswith("impl.py")

    def test_export_imported_by_usage_root_is_alive(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import helper\n"
                "__all__ = [\"helper\"]\n"
            ),
            "pkg/sub/impl.py": "def helper():\n    return 1\n",
        })
        usage = tmp_path / "consumers"
        usage.mkdir()
        (usage / "test_usage.py").write_text(
            "from pkg.sub import helper\n"
        )
        report = audit(tmp_path, usage_paths=[usage])
        assert [f for f in report.findings if f.code == "AR030"] == []

    def test_registered_export_is_alive(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import plugin\n"
                "__all__ = [\"plugin\"]\n"
            ),
            "pkg/sub/impl.py": (
                "from pkg.sub.reg import register\n"
                "@register\n"
                "def plugin():\n    return 1\n"
            ),
            "pkg/sub/reg.py": "def register(f):\n    return f\n",
        })
        report = audit(tmp_path)
        assert [f for f in report.findings if f.code == "AR030"] == []

    def test_signature_vocabulary_class_is_alive(self, tmp_path):
        # Result types appear in annotations, not import statements.
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import Result, compute\n"
                "__all__ = [\"Result\", \"compute\"]\n"
            ),
            "pkg/sub/impl.py": (
                "class Result:\n    pass\n"
                "def compute() -> Result:\n    return Result()\n"
            ),
        })
        usage = tmp_path / "consumers"
        usage.mkdir()
        (usage / "use.py").write_text("from pkg.sub import compute\n")
        report = audit(tmp_path, usage_paths=[usage])
        assert [f for f in report.findings if f.code == "AR030"] == []

    def test_directive_suppresses_dead_export(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/sub/__init__.py": (
                "from pkg.sub.impl import oracle\n"
                "__all__ = [\"oracle\"]\n"
            ),
            "pkg/sub/impl.py": (
                "def oracle():  # reprolint: disable=AR030\n"
                "    return 1\n"
            ),
        })
        report = audit(tmp_path)
        assert [f for f in report.findings if f.code == "AR030"] == []
        assert report.suppressed == 1

    def test_orphan_private_helper_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/mod.py": (
                "def _forgotten():\n    return 1\n"
                "def used():\n    return 2\n"
            ),
            "pkg/other.py": "from pkg.mod import used\n",
        })
        report = audit(tmp_path)
        findings = [f for f in report.findings if f.code == "AR031"]
        assert any("_forgotten" in f.component for f in findings)

    def test_referenced_private_helper_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/mod.py": (
                "def _inner():\n    return 1\n"
                "def outer():\n    return _inner()\n"
            ),
            "pkg/other.py": "from pkg.mod import outer\n",
        })
        report = audit(tmp_path)
        assert not any(
            "_inner" in f.component for f in report.findings
        )

    def test_orphan_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/alive.py": "from pkg.wired import on\n",
            "pkg/wired.py": "def on():\n    return 1\n",
            "pkg/island.py": "def off():\n    return 0\n",
        })
        usage = tmp_path / "consumers"
        usage.mkdir()
        (usage / "use.py").write_text("import pkg.alive\n")
        report = audit(tmp_path, usage_paths=[usage])
        modules = [
            f for f in report.findings
            if f.code == "AR031" and f.component.startswith("module[")
        ]
        assert [f.component for f in modules] == ["module[pkg.island]"]


# ------------------------------------------------------------ AR040-AR042


HOT_CONTRACT = LayerContract(hot_paths=("pkg.hot",))


class TestHotPathPurity:
    def test_densify_in_hot_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/kernel.py": (
                "def solve(mat):\n"
                "    return mat.toarray().sum()\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        findings = [f for f in report.findings if f.code == "AR040"]
        assert findings and findings[0].severity == "warning"
        assert "toarray" in findings[0].message

    def test_asarray_over_sparse_name_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/kernel.py": (
                "import numpy as np\n"
                "def solve(csr_mat):\n"
                "    return np.asarray(csr_mat)\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        assert [f.code for f in report.findings
                if f.code == "AR040"] == ["AR040"]

    def test_same_code_in_cold_module_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/cold/kernel.py": (
                "def solve(mat):\n"
                "    return mat.toarray().sum()\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        assert [f for f in report.findings if f.code == "AR040"] == []

    def test_scalar_index_loop_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/loop.py": (
                "def fill(x, n):\n"
                "    for i in range(n):\n"
                "        x[i] = i * 2.0\n"
                "    return x\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        findings = [f for f in report.findings if f.code == "AR041"]
        assert findings and findings[0].severity == "info"
        assert findings[0].line == 2

    def test_loop_invariant_allocation_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/alloc.py": (
                "import numpy as np\n"
                "def run(n, steps):\n"
                "    total = 0.0\n"
                "    for _ in range(steps):\n"
                "        buf = np.empty(n)\n"
                "        buf[:] = 1.0\n"
                "        total += buf.sum()\n"
                "    return total\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        findings = [f for f in report.findings if f.code == "AR042"]
        assert findings and findings[0].data["allocator"] == "empty"

    def test_loop_dependent_allocation_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/alloc.py": (
                "import numpy as np\n"
                "def run(sizes):\n"
                "    out = []\n"
                "    for n in sizes:\n"
                "        out.append(np.zeros(n))\n"
                "    return out\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        assert [f for f in report.findings if f.code == "AR042"] == []

    def test_hoisted_allocation_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/hot/alloc.py": (
                "import numpy as np\n"
                "def run(n, steps):\n"
                "    buf = np.empty(n)\n"
                "    total = 0.0\n"
                "    for _ in range(steps):\n"
                "        buf[:] = 1.0\n"
                "        total += buf.sum()\n"
                "    return total\n"
            ),
        })
        report = audit(tmp_path, contract=HOT_CONTRACT)
        assert [f for f in report.findings if f.code == "AR042"] == []


# ----------------------------------------------------------- registry/API


class TestRegistry:
    def test_rule_catalog_covers_every_family(self):
        leads = [rule.code for rule in all_rules("AR")]
        assert leads == sorted(leads)
        for expected in ("AR010", "AR011", "AR020", "AR030", "AR031",
                         "AR040"):
            assert any(
                expected in rule.codes for rule in all_rules("AR")
            ), expected

    def test_get_arch_rule_roundtrip(self):
        rule = get_rule("AR010")
        assert rule.code == "AR010"
        with pytest.raises(KeyError):
            get_rule("AR999")

    def test_every_rule_has_metadata(self):
        for rule in all_rules("AR"):
            assert rule.name and rule.rationale and rule.codes


# ------------------------------------------------------- real-tree gates


class TestRealTree:
    def test_default_contract_is_consistent(self):
        contract = default_contract()
        # Every allowed dependency names a declared node, so typos in
        # the contract cannot silently allow everything.
        for node, allowed in contract.layers.items():
            for target in allowed:
                assert target in contract.layers, (node, target)
        assert contract is not DEFAULT_CONTRACT  # fresh instance
        assert contract == DEFAULT_CONTRACT

    def test_src_has_no_layering_violations(self):
        report = audit_tree(["src"])
        structural = [
            f for f in report.findings
            if f.code in ("AR010", "AR011")
        ]
        assert structural == []

    def test_src_passes_the_whole_gate(self):
        """Acceptance: the merged tree audits clean (`repro arch src`)."""
        report = audit_tree(
            ["src"], api_baseline_path="API_SURFACE.json"
        )
        assert [f.component for f in report.findings] == []

    def test_exceptions_are_layer_violations(self):
        # Each sanctioned exception must still violate the package
        # contract — otherwise the entry is stale and should go.
        contract = default_contract()
        from repro.analysis.arch.graph import package_of

        for source, target in contract.exceptions:
            src_pkg = package_of(source, "repro")
            dst_pkg = package_of(target, "repro")
            assert not contract.allows(src_pkg, dst_pkg), (source, target)
