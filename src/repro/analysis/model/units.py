"""Pass family 2: dimensional consistency of the slot formulations.

A lightweight unit algebra over the paper's base dimensions (requests,
time, money, energy) plus a registry naming every quantity the builders
in :mod:`repro.core.formulation` combine.  The checker walks a symbolic
term table of the LP/MILP — one entry per objective/constraint family,
each term a product of registered quantities — and confirms every
family is dimensionally homogeneous (all terms and the right-hand side
carry the same unit).

The table is maintained *next to* the builders on purpose: when someone
edits a constraint in ``formulation.py`` without updating the table (or
updates the table inconsistently), the mismatch surfaces as MD021
instead of as a silently mis-scaled coefficient.  One modelling
convention to know: the delay-reserve right-hand side ``M_l / D_k``
(Eq. 6 at full share) is a *rate* — one request per deadline per
server — so it carries the ``request`` quantum explicitly and lands on
req/time like the arrival terms it is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.engine import Rule, register
from repro.analysis.model.audit import AuditContext
from repro.analysis.report import Finding

__all__ = [
    "Unit",
    "DIMENSIONLESS",
    "default_unit_registry",
    "formulation_term_table",
    "check_homogeneity",
    "UnitsRule",
]

#: Canonical order of the base dimensions in rendered units.
_BASE_DIMS = ("req", "time", "money", "energy")


@dataclass(frozen=True)
class Unit:
    """A product of integer powers of the base dimensions.

    ``Unit(req=1, time=-1)`` is an arrival rate; ``Unit()`` is
    dimensionless.  Units multiply/divide structurally — no magnitude
    conversion is modelled because the repository keeps one coherent
    unit system (hours, dollars, kWh) throughout.
    """

    req: int = 0
    time: int = 0
    money: int = 0
    energy: int = 0

    def __mul__(self, other: "Unit") -> "Unit":
        return Unit(
            req=self.req + other.req,
            time=self.time + other.time,
            money=self.money + other.money,
            energy=self.energy + other.energy,
        )

    def __truediv__(self, other: "Unit") -> "Unit":
        return self * other ** -1

    def __pow__(self, exponent: int) -> "Unit":
        return Unit(
            req=self.req * exponent,
            time=self.time * exponent,
            money=self.money * exponent,
            energy=self.energy * exponent,
        )

    def __str__(self) -> str:
        num = [
            f"{d}" + (f"^{p}" if p != 1 else "")
            for d, p in zip(_BASE_DIMS, self._powers())
            if p > 0
        ]
        den = [
            f"{d}" + (f"^{-p}" if p != -1 else "")
            for d, p in zip(_BASE_DIMS, self._powers())
            if p < 0
        ]
        if not num and not den:
            return "1"
        head = "*".join(num) if num else "1"
        return head + ("/" + "/".join(den) if den else "")

    def _powers(self) -> Tuple[int, int, int, int]:
        return (self.req, self.time, self.money, self.energy)


DIMENSIONLESS = Unit()


def default_unit_registry() -> Dict[str, Unit]:
    """Units of every quantity the slot builders combine.

    Time is hours, money is dollars, energy is kWh throughout the
    repository (see ``docs/DEVELOPMENT.md``), but the algebra only uses
    the dimensions, not the magnitudes.
    """
    per_hour = Unit(time=-1)
    return {
        # workload / topology
        "arrival_rate": Unit(req=1) * per_hour,        # lambda_{k,s}
        "service_rate": Unit(req=1) * per_hour,        # C*mu at full share
        "server_capacity": DIMENSIONLESS,              # capacity factor C_l
        "cpu_share": DIMENSIONLESS,                    # phi / Phi
        "server_count": DIMENSIONLESS,                 # M_l
        "deadline": Unit(time=1),                      # D_k, sub-deadlines
        "delay": Unit(time=1),                         # R
        "request_quantum": Unit(req=1),                # the "one request" in M/D
        "slot_duration": Unit(time=1),                 # T
        # market / energy
        "price": Unit(money=1, energy=-1),             # p_l ($/kWh)
        "energy_per_request": Unit(energy=1, req=-1),  # P_{k,l} (kWh/req)
        "transfer_cost": Unit(money=1, req=-1),        # TranCost ($/req)
        # revenue
        "utility": Unit(money=1, req=-1),              # TUF level U_q ($/req)
        # decision variables
        "dispatch_rate": Unit(req=1) * per_hour,       # lambda_{k,s,l}
        "mccormick_product": Unit(req=1) * per_hour,   # y = z * Lambda
        "level_selector": DIMENSIONLESS,               # z (binary)
    }


#: One symbolic term: a sequence of ``(quantity_name, exponent)`` pairs.
Term = Sequence[Tuple[str, int]]


def formulation_term_table() -> List[Tuple[str, Unit, List[Term]]]:
    """Symbolic term table of the fixed-level LP and multi-level MILP.

    Each entry is ``(family, expected_unit_of, terms)`` where ``terms``
    lists every additive term of that objective/constraint family as
    products of registered quantity names.  The expected unit is stated
    through a representative term so the table has no freedom to drift
    from the registry; :func:`check_homogeneity` verifies all terms
    agree with it.
    """
    return [
        # Objective: T * (U - P*p - TranCost) * lambda  -> money
        ("objective", Unit(money=1), [
            [("slot_duration", 1), ("utility", 1), ("dispatch_rate", 1)],
            [("slot_duration", 1), ("energy_per_request", 1), ("price", 1),
             ("dispatch_rate", 1)],
            [("slot_duration", 1), ("transfer_cost", 1), ("dispatch_rate", 1)],
            # MILP revenue enters through the McCormick product instead.
            [("slot_duration", 1), ("utility", 1), ("mccormick_product", 1)],
        ]),
        # Delay rows (LP and MILP): Lambda - Phi*C*mu <= -(M/D) * 1req,
        # MILP adds + (M/D_q)*1req * z on the left.
        ("delay", Unit(req=1, time=-1), [
            [("dispatch_rate", 1)],
            [("cpu_share", 1), ("service_rate", 1)],
            [("request_quantum", 1), ("server_count", 1), ("deadline", -1)],
            [("request_quantum", 1), ("server_count", 1), ("deadline", -1),
             ("level_selector", 1)],
        ]),
        # Share budget: sum_k Phi <= M_l  -> dimensionless counts.
        ("share_budget", DIMENSIONLESS, [
            [("cpu_share", 1)],
            [("server_count", 1)],
        ]),
        # Arrival caps: sum_l lambda <= lambda_{k,s}.
        ("arrival_cap", Unit(req=1, time=-1), [
            [("dispatch_rate", 1)],
            [("arrival_rate", 1)],
        ]),
        # MILP level selection: sum_q z = 1.
        ("level_selection", DIMENSIONLESS, [
            [("level_selector", 1)],
        ]),
        # MILP McCormick: sum_q y = Lambda and y <= Lambda_max * z.
        ("mccormick", Unit(req=1, time=-1), [
            [("mccormick_product", 1)],
            [("dispatch_rate", 1)],
            [("arrival_rate", 1), ("level_selector", 1)],
        ]),
    ]


def check_homogeneity(
    registry: Dict[str, Unit],
    table: Optional[List[Tuple[str, Unit, List[Term]]]] = None,
) -> List[Tuple[str, int, Unit, Unit]]:
    """Return ``(family, term_index, expected, got)`` for every mismatch.

    An unregistered quantity name raises ``KeyError`` — the table and
    the registry must be edited together.
    """
    if table is None:
        table = formulation_term_table()
    mismatches: List[Tuple[str, int, Unit, Unit]] = []
    for family, expected, terms in table:
        for index, term in enumerate(terms):
            unit = DIMENSIONLESS
            for name, exponent in term:
                unit = unit * registry[name] ** exponent
            if unit != expected:
                mismatches.append((family, index, expected, unit))
    return mismatches


def _render_term(term: Term) -> str:
    return " * ".join(
        name if exponent == 1 else f"{name}^{exponent}"
        for name, exponent in term
    )


@register
class UnitsRule(Rule):
    """MD020/MD021 — dimensional homogeneity of objective/constraints."""

    code = "MD020"
    codes = {
        "MD020": "objective term dimensionally inconsistent",
        "MD021": "constraint term dimensionally inconsistent",
    }
    name = "dimensional-consistency"
    rationale = (
        "Every objective term must be money and every constraint family "
        "homogeneous; mixing $/kWh with kWh/req or comparing req/h "
        "against a bare 1/D produces coefficients that are wrong by a "
        "physical factor, which no solver tolerance can detect. The "
        "symbolic term table mirrors the builders; a mismatch means the "
        "formulation and its declared units have drifted apart."
    )

    def __init__(
        self,
        registry: Optional[Dict[str, Unit]] = None,
        table: Optional[List[Tuple[str, Unit, List[Term]]]] = None,
    ) -> None:
        # Injectable for tests that audit a deliberately wrong registry;
        # the registered singleton uses the defaults.
        self._registry = registry
        self._table = table

    def check(self, ctx: AuditContext) -> Iterator[Finding]:
        registry = self._registry or default_unit_registry()
        table = self._table or formulation_term_table()
        lookup = {family: terms for family, _, terms in table}
        for family, index, expected, got in check_homogeneity(registry, table):
            code = "MD020" if family == "objective" else "MD021"
            term = _render_term(lookup[family][index])
            yield self.finding(
                code, "error", f"units[{family}]",
                f"term {index} ({term}) has unit {got}, expected "
                f"{expected}: the formulation and its declared units "
                "have drifted apart",
                term_index=index,
            )
