"""Findings, renderers, baselines and exit codes for the analysis engine.

Four targets read four different artifacts — the *source* (``RP0xx``),
the built slot *problem* (``MD0xx``), its *solution* (``CT0xx``) and the
import *tree* (``AR0xx``) — but they report the same way, through this
module:

* :class:`Finding` — the one finding type.  Most findings anchor to a
  named *component* (``"bigm[request1]"``, ``"layer[core -> sim]"``)
  and carry a severity; source findings anchor to ``path:line:col``
  instead and leave ``component`` empty.  Architecture findings carry
  both: a component plus the file anchor that inline directives match;
* :func:`render_findings_text` / :func:`render_findings_json` — the
  sorted text and JSON renderers;
* :class:`Baseline` + :func:`write_baseline` / :func:`read_baseline` /
  :func:`apply_baseline` — findings baselines that freeze deliberate
  debt (a multiset of fingerprints);
* ``EXIT_CLEAN`` / ``EXIT_FINDINGS`` / ``EXIT_USAGE`` and
  :func:`worst_exit_code` — the ``0/1/2`` gate convention, including
  the worst-of combinator ``repro check`` uses.

Stdlib only.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.engine import Target

__all__ = [
    "SEVERITIES",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "Baseline",
    "Finding",
    "apply_baseline",
    "read_baseline",
    "render_findings_json",
    "render_findings_text",
    "summarize",
    "worst_exit_code",
    "write_baseline",
]

#: Severity ladder.  ``error`` findings fail the problem and solution
#: gates; the source and tree gates fail on any finding.
SEVERITIES = ("error", "warning", "info")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

_CODE_RE = re.compile(r"^[A-Z]{2}\d{3}$")

#: Exit-code convention every analysis CLI follows.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def worst_exit_code(codes: Iterable[int]) -> int:
    """Worst-of combinator: usage errors (2) dominate findings (1)."""
    worst = EXIT_CLEAN
    for code in codes:
        worst = max(worst, code)
    return worst


@dataclass(frozen=True)
class Finding:
    """One analysis finding.

    Attributes
    ----------
    code:
        Stable identifier; its prefix names the target (``RP001``,
        ``MD010``, ``CT020``, ``AR030``).
    message:
        Human-readable description with the offending specifics.
    severity:
        One of :data:`SEVERITIES`.  Source findings keep the default:
        their gate fails on any finding.
    component:
        The artifact element the finding anchors to, e.g.
        ``"bigm[request1]"`` or ``"layer[core -> sim]"``.  Empty for
        source findings, which anchor to ``path:line:col``.
    data:
        Machine-readable payload for scripting over JSON reports;
        numbers are stored as floats, strings as given.
    path, line, col:
        File anchor.  Source findings always have one; architecture
        findings have one when a file-scoped rule raised them, so
        inline ``# reprolint: disable=AR0xx`` directives apply.
    """

    code: str
    message: str
    severity: str = "error"
    component: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    path: str = ""
    line: int = 0
    col: int = 0

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ValueError(
                f"finding codes are two capitals and three digits "
                f"(e.g. RP001, MD010), got {self.code!r}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        if not self.component and (self.line < 1 or self.col < 0):
            raise ValueError(
                f"bad location {self.line}:{self.col} for {self.code}"
            )
        coerced: Dict[str, object] = {
            str(k): (v if isinstance(v, str) else float(v))  # type: ignore[arg-type]
            for k, v in dict(self.data).items()
        }
        object.__setattr__(self, "data", coerced)

    @property
    def sort_key(self) -> Tuple:
        """Report order.

        Source findings group by file and read top to bottom (path,
        line, col, code); component findings list errors first, then
        by code, component and message.
        """
        if not self.component:
            return (self.path, self.line, self.col, self.code, self.message)
        return (_SEVERITY_RANK[self.severity], self.code,
                self.component, self.message)

    @property
    def fingerprint(self) -> Tuple:
        """Baseline-matching key.

        ``(path, code, line)`` for source findings; ``(component,
        code)`` otherwise — line-free, so structural findings survive
        unrelated edits moving code around a file.
        """
        if not self.component:
            return (self.path, self.code, self.line)
        return (self.component, self.code)

    def render(self) -> str:
        """One report line: ``path:line:col: CODE message`` or
        ``component: severity CODE message``."""
        if not self.component:
            return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        return f"{self.component}: {self.severity} {self.code} {self.message}"

    def to_dict(self) -> Dict:
        """Plain-dict form for ``--format json`` reports, baselines and
        the ``SlotTrace.audit``/``certificates`` records."""
        if not self.component:
            return {
                "path": self.path,
                "line": self.line,
                "col": self.col,
                "code": self.code,
                "message": self.message,
            }
        record: Dict = {
            "code": self.code,
            "severity": self.severity,
            "component": self.component,
            "message": self.message,
            "data": dict(self.data),
        }
        if self.path:
            record["path"] = self.path
            record["line"] = self.line
        return record


def render_findings_text(findings: Iterable[Finding]) -> str:
    """One :meth:`Finding.render` line per finding, in report order."""
    return "\n".join(
        f.render() for f in sorted(findings, key=lambda f: f.sort_key)
    )


def summarize(records: Sequence[Dict]) -> Dict[str, int]:
    """Counts over finding dicts: all, then per severity (source
    findings have no severity key and count only as findings)."""
    counts = Counter(record.get("severity") for record in records)
    return {
        "findings": len(records),
        "errors": counts["error"],
        "warnings": counts["warning"],
        "info": counts["info"],
    }


def render_findings_json(
    findings: Iterable[Finding],
    *,
    details: Optional[Dict] = None,
) -> str:
    """Machine-readable report: findings, severity counts, details."""
    ordered: List[Dict] = [
        f.to_dict() for f in sorted(findings, key=lambda f: f.sort_key)
    ]
    return json.dumps(
        {
            "findings": ordered,
            "summary": summarize(ordered),
            "details": details if details is not None else {},
        },
        indent=2,
        sort_keys=True,
    )


# ------------------------------------------------------------- baselines
#
# A baseline file is a JSON snapshot of known findings.  ``--baseline
# FILE`` filters findings matching a baseline entry, so deliberately
# deferred debt does not fail the gate while any *new* finding still
# does.  Matching is by fingerprint as a multiset: each entry absorbs
# at most one live finding.  Regenerate with ``--write-baseline`` after
# a deliberate decision to defer; docs/DEVELOPMENT.md asks for a
# tracking note per entry.

_BASELINE_VERSION = 1


@dataclass
class Baseline:
    """A multiset of accepted finding fingerprints."""

    entries: Counter = field(default_factory=Counter)

    def __len__(self) -> int:
        return int(sum(self.entries.values()))


def _baseline_key(finding: Finding) -> Tuple:
    # Fingerprint first, so a regenerated baseline is byte-identical
    # whatever order the caller passes the findings in.
    return (*finding.fingerprint, finding.col, finding.message)


def write_baseline(findings: Iterable[Finding], path: str) -> int:
    """Write ``findings`` as a baseline file; returns the entry count.

    The full finding (including message) is stored for human review,
    but only the fingerprint participates in matching — messages may
    be reworded without invalidating a baseline.
    """
    records = [f.to_dict() for f in sorted(findings, key=_baseline_key)]
    payload = {"version": _BASELINE_VERSION, "findings": records}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(records)


def read_baseline(path: str, target: Optional["Target"] = None) -> Baseline:
    """Load a baseline file written by :func:`write_baseline`.

    Raises :class:`ValueError` for a file that is not a baseline, an
    unsupported version, or a malformed record — including, when
    ``target`` is given, a finding of another target.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    tool = target.tool if target is not None else "findings"
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError(f"{path}: not a {tool} baseline file")
    version = payload.get("version")
    if version != _BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline version {version!r} "
            f"(expected {_BASELINE_VERSION})"
        )
    entries: Counter = Counter()
    for record in payload["findings"]:
        try:
            finding = Finding(**record)
            if target is not None and not finding.code.startswith(target.prefix):
                raise ValueError(finding.code)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: malformed baseline entry {record!r}"
            ) from exc
        entries[finding.fingerprint] += 1
    return Baseline(entries=entries)


def apply_baseline(
    findings: Sequence[Finding], baseline: Baseline
) -> Tuple[List[Finding], int]:
    """Split findings into (new, baselined-count) against ``baseline``;
    the new findings come back in report order."""
    budget = Counter(baseline.entries)
    fresh: List[Finding] = []
    absorbed = 0
    for finding in sorted(findings, key=_baseline_key):
        if budget[finding.fingerprint] > 0:
            budget[finding.fingerprint] -= 1
            absorbed += 1
        else:
            fresh.append(finding)
    fresh.sort(key=lambda f: f.sort_key)
    return fresh, absorbed
