"""Per-slot trace records and their JSONL serialization.

A :class:`SlotTrace` is the structured record one ``plan_slot`` call
leaves behind when telemetry is enabled: which solve path ran, how the
wall time split across phases, how much work the solver did (simplex
pivots / IPM iterations / B&B nodes / greedy LP evaluations), whether
the warm-start layer hit, and how tight the returned plan sits against
the slot constraints.  Traces are plain data — every field serializes
to one JSON object per line (JSONL), so runs can be appended, streamed,
and diffed with standard tools.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Union

__all__ = [
    "WARM_OUTCOMES",
    "SlotTrace",
    "write_traces",
    "read_traces",
]

#: Valid values for :attr:`SlotTrace.warm_start`:
#:
#: * ``"off"``   — warm-starting disabled for this optimizer;
#: * ``"cold"``  — enabled but no prior state existed (first slot);
#: * ``"hit"``   — a prior state was offered and the solver used it;
#: * ``"miss"``  — a prior state was offered but rejected as stale
#:   (or the backend has no warm-start path, e.g. HiGHS).
WARM_OUTCOMES = ("off", "cold", "hit", "miss")


@dataclass(frozen=True)
class SlotTrace:
    """One slot solve, fully described.

    ``phase_times`` maps phase names (``"build"``, ``"solve"``,
    ``"postprocess"``, plus ``"collapse"``, ``"decompose"`` and
    ``"expand"`` on the sparse path) to wall seconds; the phases are
    disjoint, so their sum is at most ``total_time``, which covers the
    whole ``plan_slot`` call.
    ``residuals`` carries the constraint-violation magnitudes of the
    returned solution in the solved problem's space (see
    ``LinearProgram.residuals``); empty for solve paths that do not
    expose the final problem (big-M, greedy).

    ``fallback`` is the fault-tolerance level that produced the plan:
    ``0`` means the requested solver succeeded; ``n > 0`` means the
    ``n``-th stage of the optimizer's fallback chain rescued the slot
    (see ``OptimizerConfig.fallback``).  ``failure`` concatenates the
    error messages of the stages that failed before the winning one
    (``""`` when the primary solve succeeded).  Both default so trace
    files written before these fields existed still round-trip.

    ``audit`` carries the formulation auditor's findings for the slot
    when ``OptimizerConfig(audit="warn"|"error")`` is active: one dict
    per finding, as produced by ``repro.analysis.Finding.to_dict``
    (code, severity, component, message, data).  Empty when auditing is off or the slot
    audited clean; defaults so older trace files still round-trip.

    ``certificates`` carries the optimality certifier's findings for
    the slot when ``OptimizerConfig(certify="warn"|"error")`` is
    active: one dict per finding, as produced by
    ``repro.analysis.Finding.to_dict`` (code, severity, component,
    message, data).  Empty when certification is off or the
    solve certified clean; defaults so older trace files round-trip.
    """

    slot: int
    method: str
    formulation: str
    warm_start: str
    objective: float
    total_time: float
    phase_times: Dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    nodes: int = 0
    lp_evaluations: int = 0
    num_variables: int = 0
    num_constraints: int = 0
    residuals: Dict[str, float] = field(default_factory=dict)
    fallback: int = 0
    failure: str = ""
    audit: List[Dict] = field(default_factory=list)
    certificates: List[Dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.warm_start not in WARM_OUTCOMES:
            raise ValueError(
                f"warm_start must be one of {WARM_OUTCOMES}, "
                f"got {self.warm_start!r}"
            )
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        if self.fallback < 0:
            raise ValueError(f"fallback must be >= 0, got {self.fallback}")
        object.__setattr__(
            self, "phase_times",
            {str(k): float(v) for k, v in dict(self.phase_times).items()},
        )
        object.__setattr__(
            self, "residuals",
            {str(k): float(v) for k, v in dict(self.residuals).items()},
        )
        object.__setattr__(self, "audit", [dict(f) for f in self.audit])
        object.__setattr__(
            self, "certificates", [dict(f) for f in self.certificates]
        )

    @property
    def phase_time_total(self) -> float:
        """Sum of the recorded phase times (<= ``total_time``)."""
        return float(sum(self.phase_times.values()))

    def to_dict(self) -> Dict:
        """Plain JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SlotTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self) -> str:
        """One compact JSON line."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "SlotTrace":
        """Parse one JSONL line back into a trace."""
        return cls.from_dict(json.loads(line))


def write_traces(
    traces: Iterable[SlotTrace], path: Union[str, Path], append: bool = False
) -> int:
    """Write traces to ``path`` as JSONL; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("a" if append else "w") as fh:
        for trace in traces:
            fh.write(trace.to_json() + "\n")
            count += 1
    return count


def read_traces(path: Union[str, Path]) -> List[SlotTrace]:
    """Read a JSONL trace file back (blank lines ignored)."""
    out: List[SlotTrace] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(SlotTrace.from_json(line))
    return out
