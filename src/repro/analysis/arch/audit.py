"""The tree target's runner: run every ``AR0xx`` rule over a tree.

:func:`audit_tree` is the single entry point shared by the CLI, the
CI gate, and the tests: parse the tree once, build the usage index
over the tree plus the usage roots (``tests/``, ``benchmarks/``,
``examples/`` when present), hand every registered rule the shared
:class:`ArchContext`, honor inline ``# reprolint: disable=AR0xx``
directives for file-anchored findings, and return a
:class:`~repro.analysis.engine.Report`.

Like reprolint (and unlike the numeric auditors), the gate is
*any finding* — warnings and info findings fail ``repro arch`` too,
because every rule here flags something actionable; deliberate
exceptions go in a findings baseline or an inline directive, not in a
severity loophole.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.arch.contract import DEFAULT_CONTRACT, LayerContract
from repro.analysis.arch.graph import (
    TreeIndex,
    UsageIndex,
    build_tree_index,
    build_usage_index,
)
from repro.analysis.engine import TREE, Report
from repro.analysis.report import Finding
from repro.analysis.suppression import (
    SuppressionError,
    SuppressionIndex,
    collect_suppressions,
)

__all__ = [
    "ArchContext",
    "DEFAULT_USAGE_ROOTS",
    "audit_tree",
    "default_usage_paths",
    "load_api_baseline",
]

#: Conventional usage roots consulted when they exist under the
#: current directory: an export consumed only by tests or benches is
#: alive, not dead.
DEFAULT_USAGE_ROOTS = ("tests", "benchmarks", "examples")


@dataclass
class ArchContext:
    """Everything a rule may need about the tree under audit.

    Attributes
    ----------
    index:
        The parsed module table and import graph.
    contract:
        The layer contract in force (tests inject synthetic ones).
    usage:
        Name-usage harvested from the tree plus the usage roots
        (tests/, benchmarks/, examples/) so test-only consumers keep
        an export alive.
    api_baseline:
        The committed API-surface snapshot (parsed JSON), or ``None``
        when no baseline is available — the surface rules then only
        record coverage, they cannot diff.
    """

    index: TreeIndex
    contract: LayerContract
    usage: UsageIndex
    api_baseline: Optional[Dict] = None
    #: Populated by the surface rule: the live snapshot, counted in
    #: the report's ``surface_modules`` detail.
    api_surface: Dict = field(default_factory=dict)


def load_api_baseline(path: str) -> Dict[str, object]:
    """Parse a committed API-surface snapshot; raises ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read API baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "modules" not in payload:
        raise ValueError(f"{path}: not an API-surface snapshot")
    return payload


def default_usage_paths(extra: Sequence[str] = ()) -> List[str]:
    """The :data:`DEFAULT_USAGE_ROOTS` present under the current
    directory, then each of ``extra`` not already listed."""
    roots = [root for root in DEFAULT_USAGE_ROOTS if os.path.isdir(root)]
    return roots + [path for path in extra if path not in roots]


def _suppression_for(
    index: TreeIndex, cache: Dict[str, SuppressionIndex], path: str
) -> Optional[SuppressionIndex]:
    if path in cache:
        return cache[path]
    source = None
    for info in index.modules.values():
        if info.path == path:
            source = info.source
            break
    if source is None:
        cache[path] = SuppressionIndex()
        return cache[path]
    try:
        cache[path] = collect_suppressions(source)
    except SuppressionError:
        # reprolint owns reporting malformed directives (RP0xx); a
        # directive we cannot parse suppresses nothing here.
        cache[path] = SuppressionIndex()
    return cache[path]


def audit_tree(
    paths: Sequence[str],
    *,
    contract: Optional[LayerContract] = None,
    usage_paths: Optional[Sequence[str]] = None,
    api_baseline: Optional[Dict[str, object]] = None,
    api_baseline_path: Optional[str] = None,
) -> Report:
    """Audit the tree under ``paths`` with every registered rule.

    ``contract`` defaults to the repo's declared layering; tests
    inject synthetic contracts (and baselines) to drive the negative
    paths without touching the real tree.  ``api_baseline`` (a parsed
    snapshot) wins over ``api_baseline_path`` (a file); when neither
    is given the surface rules only record the live snapshot — a tree
    cannot drift from a baseline it does not have.  The report's
    ``details`` describe the tree (modules, eager edges, hot modules,
    surface modules, usage roots) and count ``suppressed`` findings.
    """
    active_contract = contract if contract is not None else DEFAULT_CONTRACT
    index = build_tree_index(paths)
    roots = (
        list(usage_paths) if usage_paths is not None
        else default_usage_paths()
    )
    usage = build_usage_index(index, roots)
    baseline = api_baseline
    baseline_source = "inline" if api_baseline is not None else ""
    if baseline is None and api_baseline_path is not None:
        if os.path.isfile(api_baseline_path):
            baseline = load_api_baseline(api_baseline_path)
            baseline_source = api_baseline_path
        else:
            baseline_source = f"{api_baseline_path} (missing)"
    ctx = ArchContext(
        index=index,
        contract=active_contract,
        usage=usage,
        api_baseline=baseline,
    )
    raw: List[Finding] = []
    for rule in TREE.rules():
        raw.extend(rule.check(ctx))

    cache: Dict[str, SuppressionIndex] = {}
    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        if finding.path:
            suppressions = _suppression_for(index, cache, finding.path)
            if suppressions is not None and suppressions.is_suppressed(
                finding
            ):
                suppressed += 1
                continue
        kept.append(finding)
    kept.sort(key=lambda f: f.sort_key)

    eager = sum(1 for _ in index.eager_edges())
    hot = sum(
        1 for name in index.modules if active_contract.is_hot(name)
    )
    surface_modules = ctx.api_surface.get("modules", {})
    details: Dict[str, object] = {
        "modules": len(index.modules),
        "packages": index.packages(),
        "eager_edges": eager,
        "hot_modules": hot,
        "surface_modules": len(surface_modules)
        if isinstance(surface_modules, dict) else 0,
        "api_baseline": baseline_source or "none",
        "usage_roots": roots,
        "suppressed": suppressed,
    }
    return Report(target=TREE, findings=kept, details=details)
