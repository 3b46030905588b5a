"""The declared architecture contract the ``AR0xx`` rules enforce.

This module is the machine-checked version of what used to be tribal
knowledge: which of the subpackages may import which, which module
edges are sanctioned exceptions, and which modules the benches prove
are hot (and therefore subject to the purity rules).

The layering (bottom → top)::

    cli_registry   utils                          (stdlib-only bottom)
      obs  market  workload  queueing             (leaf domain models)
      cloud  solvers                              (substrate + backends)
      des  core                                   (engines)
      sim  analysis                               (harness + trust stack)
      stream  bench                               (online plane + perf)
      experiments                                 (paper studies)
      repro  cli  __main__                        (assembly + entry)

A package may *eagerly* import only packages in its allowed set —
eager means module scope outside ``if TYPE_CHECKING:``, the imports
that execute at import time and can therefore deadlock or erode
layering.  Function-scoped (lazy) imports are exempt: the CLI modules
lazily pull :mod:`repro.experiments` to build scenarios, and
``plan_slot`` lazily pulls the auditor/certifier hooks; neither makes
the importer *depend* on the upper layer to be importable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "DEFAULT_CONTRACT",
    "LayerContract",
    "default_contract",
]


@dataclass(frozen=True)
class LayerContract:
    """A declared layering: allowed eager deps per layering node.

    Attributes
    ----------
    layers:
        Map from layering node (subpackage name, top-level module
        name, or the root package name) to the set of nodes it may
        eagerly import.  A node absent from the map is unconstrained
        (useful for fixture trees that only declare a few nodes).
    exceptions:
        Sanctioned module-level eager edges ``(source_module,
        target_module)`` that violate the package-level contract.
        Every entry needs a tracking comment at its definition — they
        are a ratchet, not an allowance.
    hot_paths:
        Dotted module prefixes the benches prove are hot; the purity
        rules (AR040–AR042) apply inside them only.
    """

    layers: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    exceptions: FrozenSet[Tuple[str, str]] = frozenset()
    hot_paths: Tuple[str, ...] = ()

    def allows(self, source_pkg: str, target_pkg: str) -> bool:
        """True when the package-level eager edge is contract-legal."""
        if source_pkg == target_pkg:
            return True
        allowed = self.layers.get(source_pkg)
        if allowed is None:
            return True
        return target_pkg in allowed

    def excepted(self, source_module: str, target_module: str) -> bool:
        """True when the module edge is a sanctioned exception."""
        return (source_module, target_module) in self.exceptions

    def is_hot(self, module: str) -> bool:
        """True when ``module`` falls under a declared hot path."""
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.hot_paths
        )


def default_contract() -> LayerContract:
    """The repro tree's layering contract.

    Reading order is bottom-up; each entry lists everything the
    package may eagerly import.  ``des`` stays engine-pure (utils plus
    the cloud substrate it bills against); ``core`` may not touch
    ``sim``/``stream``/``bench``/``experiments``; ``analysis`` may not
    eagerly touch ``experiments`` (its CLIs build scenarios lazily).
    """
    layers: Dict[str, FrozenSet[str]] = {
        # Stdlib-only bottom: anything may import these, they import
        # nothing of ours.
        "cli_registry": frozenset(),
        "utils": frozenset(),
        # Leaf domain models over utils only.
        "obs": frozenset({"utils"}),
        "market": frozenset({"utils"}),
        "workload": frozenset({"utils"}),
        "queueing": frozenset({"utils"}),
        # Substrate and solver backends.
        "cloud": frozenset({"utils", "market"}),
        "solvers": frozenset({"utils", "obs"}),
        # Engines: the DES is self-contained apart from the cloud
        # substrate it meters; core is the optimization brain.
        "des": frozenset({"utils", "cloud"}),
        "core": frozenset({
            "utils", "obs", "queueing", "cloud", "market", "workload",
            "solvers",
        }),
        # Harness + trust stack.
        "sim": frozenset({
            "utils", "obs", "queueing", "cloud", "market", "workload",
            "solvers", "core", "des",
        }),
        "analysis": frozenset({
            "utils", "cli_registry", "obs", "cloud", "solvers", "core",
        }),
        # Online control plane and the perf suite.
        "stream": frozenset({
            "utils", "cli_registry", "obs", "cloud", "market",
            "workload", "solvers", "core", "analysis",
        }),
        "bench": frozenset({
            "utils", "cli_registry", "obs", "des", "core", "sim",
            "stream", "workload",
        }),
        # Paper studies consume everything below.
        "experiments": frozenset({
            "utils", "obs", "queueing", "cloud", "market", "workload",
            "solvers", "core", "des", "sim", "analysis", "stream",
            "bench",
        }),
        # Assembly layer: the root package re-exports the public API
        # (everything but the studies and the CLI), the CLI wires the
        # subcommand registry, __main__ is the entry shim.
        "repro": frozenset({
            "utils", "obs", "queueing", "cloud", "market", "workload",
            "solvers", "core", "des", "sim", "analysis", "stream",
            "bench", "cli_registry",
        }),
        "cli": frozenset({
            "utils", "obs", "queueing", "cloud", "market", "workload",
            "solvers", "core", "des", "sim", "analysis", "stream",
            "bench", "experiments", "cli_registry",
        }),
        "__main__": frozenset({"cli"}),
    }
    exceptions = frozenset({
        # The task model (RequestClass, the TUFs) lives in repro.core
        # but sits layer-wise *beneath* repro.cloud: topologies are
        # typed by the request classes they serve.  Splitting it into
        # its own bottom package is queued work; until then these
        # three leaf imports are the only sanctioned upward edges,
        # and they must not grow (core.request/core.tuf import
        # nothing above utils, so no import cycle can form).
        ("repro.cloud.topology", "repro.core.request"),
        ("repro.cloud.topology", "repro.core.tuf"),
        ("repro.cloud.heterogeneous", "repro.core.request"),
    })
    hot_paths = (
        # The modules the tracked BENCH_*.json scenarios prove hot:
        # the sparse dual-simplex core (fleet_10x/fleet_100x), the DES
        # engine hot loop (des_million), the per-tick streaming plane
        # (streaming_ingest), and the plan scorer it and perfbench's
        # stream_online run on every tick (DispatchPlan geometry and
        # evaluate_plan).
        "repro.solvers.sparse",
        "repro.des.engine",
        "repro.stream",
        "repro.core.objective",
        "repro.core.plan",
    )
    return LayerContract(
        layers=layers, exceptions=exceptions, hot_paths=hot_paths
    )


#: Shared default instance (the contract is immutable).
DEFAULT_CONTRACT = default_contract()
