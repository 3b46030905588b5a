"""The source target's runner: file walking, parsing, and rule dispatch
for ``repro lint`` (``RP0xx``).

:func:`lint_paths` is the batch entry point used by the CLI;
:func:`lint_source` lints one in-memory snippet (the unit-test surface
for rule fixtures).  A file that does not parse yields a single
``RP000`` finding instead of aborting the run — one broken file must
not hide findings in the other eighty.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.analysis.engine import SOURCE, Report, Rule
from repro.analysis.report import Finding
from repro.analysis.suppression import (
    SuppressionError,
    collect_suppressions,
)

__all__ = ["FileContext", "lint_paths", "lint_source"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class FileContext:
    """Everything a rule may need about the file under analysis.

    ``path`` is normalized to forward slashes so path-scoped rules
    (solver modules, the RNG helper exemption) behave identically on
    every platform.
    """

    path: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.path = self.path.replace("\\", "/")
        if not self.lines:
            self.lines = self.source.splitlines()

    def in_package(self, *parts: str) -> bool:
        """True when the file lives under any ``repro/<part>/`` tree."""
        return any(f"/{part}/" in f"/{self.path}" for part in parts)


def _parse_error(path: str, line: int, col: int, message: str) -> Report:
    finding = Finding(
        code="RP000", message=message, path=path, line=line, col=col,
    )
    return Report(
        target=SOURCE, findings=[finding],
        details={"files_checked": 1, "suppressed": 0},
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Lint one source string under the given (virtual) ``path``.

    The path matters: several rules are path-scoped (RP004/RP006 apply
    under ``solvers/``..., RP002 exempts ``utils/rng.py``), so fixtures
    pick their scope through it.  ``details`` counts ``files_checked``
    and ``suppressed`` findings.
    """
    normalized = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=normalized)
    except SyntaxError as exc:
        return _parse_error(
            normalized,
            max(int(exc.lineno or 1), 1),
            max(int(exc.offset or 1) - 1, 0),
            f"file does not parse: {exc.msg}",
        )
    try:
        suppressions = collect_suppressions(source)
    except SuppressionError as exc:
        return _parse_error(normalized, 1, 0, str(exc))
    ctx = FileContext(path=normalized, source=source, tree=tree)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules if rules is not None else SOURCE.rules():
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return Report(
        target=SOURCE, findings=findings,
        details={"files_checked": 1, "suppressed": suppressed},
    )


def _iter_python_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return out


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Raises :class:`FileNotFoundError` for a path that does not exist —
    a typo'd path exiting 0 would be a silently green lint gate.
    """
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"lint path does not exist: {path}")
    findings: List[Finding] = []
    files = suppressed = 0
    for filename in _iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        report = lint_source(source, path=filename, rules=rules)
        findings.extend(report.findings)
        files += 1
        suppressed += report.suppressed
    findings.sort(key=lambda f: f.sort_key)
    return Report(
        target=SOURCE, findings=findings,
        details={"files_checked": files, "suppressed": suppressed},
    )
