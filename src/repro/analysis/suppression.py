"""Inline suppression comments for ``reprolint``.

Two forms, both parsed from real COMMENT tokens (``tokenize``), so text
that merely *looks* like a directive inside a string literal never
suppresses anything:

* ``# reprolint: disable=RP001`` — suppress the listed codes on the
  comment's line (the conventional trailing-comment form).  Multiple
  codes separate with commas: ``disable=RP001,RP002``.  ``disable=all``
  suppresses every rule on that line.
* ``# reprolint: disable-file=RP002`` — anywhere in the file (top of
  the module by convention), suppress the listed codes file-wide.

Suppressions match the finding's *anchor line* (where the flagged
node starts), so the directive goes on the same line as the construct
it excuses.  Unknown or malformed directives raise at lint time rather
than silently suppressing nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.analysis.report import Finding

__all__ = ["SuppressionIndex", "collect_suppressions", "SuppressionError"]

_DIRECTIVE_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<codes>[^#]*)"
)
_ALL = "all"


class SuppressionError(ValueError):
    """A malformed ``# reprolint:`` directive (bad code list, no codes)."""


@dataclass
class SuppressionIndex:
    """Per-file map of suppressed codes by line, plus file-wide codes."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)

    def is_suppressed(self, finding: Finding) -> bool:
        """True when ``finding`` is excused by a directive."""
        if _ALL in self.file_wide or finding.code in self.file_wide:
            return True
        codes = self.by_line.get(finding.line, ())
        return _ALL in codes or finding.code in codes


def _parse_codes(raw: str, line: int) -> Set[str]:
    codes = {tok.strip() for tok in raw.split(",") if tok.strip()}
    if not codes:
        raise SuppressionError(
            f"line {line}: 'reprolint: disable=' needs at least one RP code"
        )
    for code in codes:
        # The directive namespace is shared with the architecture
        # auditor (AR0xx anchors to files too); each tool only matches
        # its own codes, so an AR code never silences an RP finding.
        if code != _ALL and not re.match(r"^[A-Z]{2}\d{3}$", code):
            raise SuppressionError(
                f"line {line}: bad suppression code {code!r} "
                "(expected a code like RP001 or AR030, or 'all')"
            )
    return codes


def collect_suppressions(source: str) -> SuppressionIndex:
    """Scan ``source`` for directives; raises :class:`SuppressionError`.

    Tokenization errors are ignored here — the runner reports the file
    as unparseable through its own ``RP000`` channel, and a file that
    does not tokenize has no trustworthy comments anyway.
    """
    index = SuppressionIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return index
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        codes = _parse_codes(match.group("codes"), line)
        if match.group("kind") == "disable-file":
            index.file_wide |= codes
        else:
            index.by_line.setdefault(line, set()).update(codes)
    return index
