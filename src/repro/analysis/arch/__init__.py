"""Architecture auditor (``repro arch``): the ``AR0xx`` code space.

The tree target of the analysis engine — reprolint (``RP0xx``)
reads the source, the formulation auditor (``MD0xx``) reads the
problem, the certifier (``CT0xx``) reads the solution, and this tool
reads the *codebase structure*: an AST pass over the whole tree that
enforces the declared architecture instead of trusting review to
remember it.

Rule families:

* ``AR010``/``AR011`` — import-layer contracts: the declared layering
  of the subpackages, checked against the statically extracted eager
  import graph, plus module-cycle detection;
* ``AR020``/``AR021`` — public-API surface lock: a committed
  byte-stable snapshot (``API_SURFACE.json``) of everything reachable
  from ``__init__`` exports; removals and shape changes are breaking
  (AR020), undeclared additions are drift (AR021);
* ``AR030``/``AR031`` — dead code: exports nothing imports, private
  helpers referenced nowhere, whole modules nothing reaches;
* ``AR040``–``AR042`` — hot-path purity inside the bench-proven hot
  modules: sparse densification, scalar per-element loops, and
  loop-invariant allocations.

Importing this package registers every rule; :func:`audit_tree` is
the library entry point, ``repro arch`` (:mod:`repro.analysis.cli`)
the gate.
"""

from repro.analysis.arch.audit import ArchContext, audit_tree
from repro.analysis.arch.contract import (
    DEFAULT_CONTRACT,
    LayerContract,
    default_contract,
)
from repro.analysis.arch.graph import build_tree_index, resolve_export
from repro.analysis.arch.surface import build_api_surface, render_api_surface

# Rule modules register on import; the catalog is complete as soon as
# the package is.
from repro.analysis.arch import deadcode as _deadcode  # noqa: F401
from repro.analysis.arch import layers as _layers  # noqa: F401
from repro.analysis.arch import purity as _purity  # noqa: F401

__all__ = [
    "ArchContext",
    "DEFAULT_CONTRACT",
    "LayerContract",
    "audit_tree",
    "build_api_surface",
    "build_tree_index",
    "default_contract",
    "render_api_surface",
    "resolve_export",
]
