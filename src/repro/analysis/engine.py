"""The analysis engine: one rule registry behind lint, audit, certify
and arch.

Every rule reads one *target*, named by its code prefix:

======  ========  ======================================  ===============
prefix  kind      what its rules read                     gate fails on
======  ========  ======================================  ===============
RP      source    one Python source file (``repro lint``)  any finding
AR      tree      a package's import tree (``repro arch``) any finding
MD      problem   one built slot LP/MILP (``repro audit``) error findings
CT      solution  one solved slot (``repro certify``)      error findings
======  ========  ======================================  ===============

A rule subclasses :class:`Rule`, takes a code in its target's prefix,
and registers with :func:`register`.  Each target's rules live in one
package that registers them on import; :meth:`Target.rules` imports it
on first use, so the solve-path hooks (``plan_slot``'s ``audit=`` and
``certify=``) never load the lint or architecture rules.  A runner
builds its target's context, runs :meth:`Target.rules`, and returns a
:class:`Report` whose :attr:`Report.clean` applies the target's gate.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Type

from repro.analysis.report import Finding, render_findings_json, render_findings_text

__all__ = [
    "PROBLEM",
    "SOLUTION",
    "SOURCE",
    "TARGETS",
    "TREE",
    "Report",
    "Rule",
    "Target",
    "all_rules",
    "get_rule",
    "register",
]

_CODE_RE = re.compile(r"^[A-Z]{2}\d{3}$")


@dataclass(frozen=True)
class Target:
    """What one family of rules reads, and how its gate decides.

    Attributes
    ----------
    prefix:
        Code prefix of the target's rules (``"RP"``).
    kind:
        What the rules read: ``source``, ``tree``, ``problem`` or
        ``solution``.
    command:
        The ``repro`` subcommand (and ``repro check`` entry) running it.
    tool:
        The tool's name in messages.
    gate:
        ``"any"`` — every finding fails the gate (each rule flags
        something actionable); ``"error"`` — only error findings do.
    package:
        The package whose import registers the rules.
    clean_text:
        Text report of a run without findings.
    """

    prefix: str
    kind: str
    command: str
    tool: str
    gate: str
    package: str
    clean_text: str = ""

    def rules(self) -> List["Rule"]:
        """The target's registered rules, sorted by lead code."""
        importlib.import_module(self.package)
        return [
            _REGISTRY[code] for code in sorted(_REGISTRY)
            if code.startswith(self.prefix)
        ]

    def fails(self, findings: Sequence[Finding]) -> bool:
        """True when ``findings`` fail this target's gate."""
        if self.gate == "any":
            return bool(findings)
        return any(f.severity == "error" for f in findings)


SOURCE = Target(
    prefix="RP", kind="source", command="lint", tool="reprolint",
    gate="any", package="repro.analysis.rules",
)
TREE = Target(
    prefix="AR", kind="tree", command="arch", tool="arch",
    gate="any", package="repro.analysis.arch",
)
PROBLEM = Target(
    prefix="MD", kind="problem", command="audit", tool="audit",
    gate="error", package="repro.analysis.model",
    clean_text="formulation audit: clean",
)
SOLUTION = Target(
    prefix="CT", kind="solution", command="certify", tool="certify",
    gate="error", package="repro.analysis.certify",
    clean_text="certificates: clean",
)

#: Every target, in ``repro check`` order: cheap AST passes first,
#: solver-backed last.
TARGETS = (SOURCE, TREE, PROBLEM, SOLUTION)

_BY_PREFIX = {target.prefix: target for target in TARGETS}
_BY_KEY = {
    key: target for target in TARGETS for key in (target.prefix, target.kind)
}


class Rule:
    """Base class for analysis rules; subclasses set the metadata and
    override :meth:`check`.

    Attributes
    ----------
    code:
        Lead code, the registry key; its prefix names the target.
    name:
        Short kebab-case slug for the catalogs.
    codes:
        Every code a rule family may emit, mapped to a one-line
        meaning.  Empty for single-code rules, which emit ``code``.
    rationale:
        One paragraph tying the check to the numerics or the structure
        it protects; surfaced in the catalogs and docs/DEVELOPMENT.md.
    """

    code: str = ""
    name: str = ""
    codes: Dict[str, str] = {}
    rationale: str = ""

    def check(self, ctx: Any) -> Iterator[Finding]:
        """Yield findings for the target context ``ctx``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def finding(
        self,
        code: str,
        severity: str,
        component: str,
        message: str,
        **data: float,
    ) -> Finding:
        """Build one component finding, asserting the code is the
        family's."""
        if code not in self.codes:
            raise ValueError(
                f"rule {self.name} emitted unregistered code {code}"
            )
        return Finding(
            code=code, severity=severity, component=component,
            message=message, data=data,
        )

    def diagnostic(self, ctx: Any, node: Any, message: str) -> Finding:
        """Build a source finding anchored at AST ``node`` of the file
        ``ctx`` describes."""
        return Finding(
            code=self.code,
            message=message,
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    code = rule_cls.code or ""
    if not _CODE_RE.match(code) or code[:2] not in _BY_PREFIX:
        raise ValueError(
            f"rule {rule_cls.__name__} needs a code matching "
            f"{', '.join(t.prefix + 'xxx' for t in TARGETS)}, got {code!r}"
        )
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    if not rule_cls.name:
        raise ValueError(f"rule {code} needs a name")
    for member in rule_cls.codes:
        if not _CODE_RE.match(member) or member[:2] != code[:2]:
            raise ValueError(f"rule {rule_cls.name}: bad code {member!r}")
    if rule_cls.codes and code not in rule_cls.codes:
        raise ValueError(
            f"rule {rule_cls.name}: lead code {code} missing from its "
            "codes catalog"
        )
    _REGISTRY[code] = rule_cls()
    return rule_cls


def all_rules(target: Optional[str] = None) -> List[Rule]:
    """The registered rules of one target, named by code prefix
    (``"MD"``) or kind (``"problem"``), sorted by lead code; of every
    target, in ``repro check`` order, when ``target`` is None."""
    targets = [_BY_KEY[target]] if target is not None else TARGETS
    return [rule for t in targets for rule in t.rules()]


def get_rule(code: str) -> Rule:
    """Look up the rule owning ``code`` (lead or member code)."""
    target = _BY_PREFIX.get(code[:2])
    for rule in target.rules() if target is not None else []:
        if code == rule.code or code in rule.codes:
            return rule
    raise KeyError(
        f"unknown rule code {code!r}; known: "
        f"{sorted(c for r in _REGISTRY.values() for c in r.codes or [r.code])}"
    )


@dataclass
class Report:
    """Outcome of one analysis run.

    Attributes
    ----------
    target:
        The target analysed; its gate decides :attr:`clean`.
    findings:
        The findings, in report order.
    details:
        Run payload: coverage, tightened constants, counters (see each
        runner).  ``suppressed`` counts findings excused by inline
        directives where the target has them.
    """

    target: Target
    findings: List[Finding] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def suppressed(self) -> int:
        """Findings excused by inline directives."""
        return int(self.details.get("suppressed", 0))

    @property
    def clean(self) -> bool:
        """True when the findings pass the target's gate."""
        return not self.target.fails(self.findings)

    def render_text(self) -> str:
        if not self.findings:
            return self.target.clean_text
        return render_findings_text(self.findings)

    def render_json(self) -> str:
        return render_findings_json(self.findings, details=self.details)
