"""Public-API surface lock: AR020 breaking changes, AR021 drift.

The *surface* is every name reachable from a package ``__init__``'s
``__all__``, resolved through re-export alias chains to its defining
module and summarized structurally (function signatures, class bases,
public-method signatures, dataclass fields).  The snapshot serializes
byte-stably (sorted keys, two-space indent, trailing newline) and is
committed as ``API_SURFACE.json`` at the repo root, like the tracked
``BENCH_*.json`` baselines.

AR020 fires when a baselined entry is removed or its summarized shape
changes — the breaking-change half of the lock.  AR021 fires when the
live tree exports something the baseline never saw — additions are
cheap to make and expensive to retract, so they must be deliberate
(refresh with ``repro arch --write-api-baseline``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List

from repro.analysis.arch.audit import ArchContext
from repro.analysis.arch.graph import TreeIndex, resolve_export
from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding

__all__ = [
    "ApiSurfaceRule",
    "build_api_surface",
    "render_api_surface",
]

SURFACE_VERSION = 1


def build_api_surface(index: TreeIndex) -> Dict[str, object]:
    """Extract the exported-API snapshot from every ``__init__``.

    Only modules that declare a literal ``__all__`` participate — an
    init without one has not opted into the surface lock (the tree's
    inits all declare one; reprolint keeps it that way).
    """
    modules: Dict[str, Dict[str, Dict[str, object]]] = {}
    for info in index.modules.values():
        if not info.is_init or info.exports is None:
            continue
        entries: Dict[str, Dict[str, object]] = {}
        for name in info.exports:
            resolved = resolve_export(index, info.name, name)
            entries[name] = resolved.surface_dict()
        modules[info.name] = entries
    return {"version": SURFACE_VERSION, "modules": modules}


def render_api_surface(surface: Dict[str, object]) -> str:
    """Byte-stable text form of a surface snapshot."""
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def _diff_keys(
    old: Dict[str, object], new: Dict[str, object]
) -> List[str]:
    changed = sorted(
        key
        for key in set(old) | set(new)
        if old.get(key) != new.get(key)
    )
    return changed


@register
class ApiSurfaceRule(Rule):
    code = "AR020"
    name = "api-surface"
    codes = {
        "AR020": "a baselined public export was removed or changed shape",
        "AR021": "the tree exports a name the API baseline never saw",
    }
    rationale = (
        "Everything reachable from an ``__init__`` export is a promise "
        "— downstream notebooks, the CLI, and the test suite all bind "
        "to it.  Locking the surface in a committed byte-stable "
        "snapshot turns silent signature drift and accidental "
        "exports into reviewable diffs: removals and shape changes "
        "(AR020) fail the gate outright, additions (AR021) must be "
        "acknowledged by refreshing the baseline."
    )

    def check(self, ctx: ArchContext) -> Iterator[Finding]:
        live = build_api_surface(ctx.index)
        ctx.api_surface = live
        baseline = ctx.api_baseline
        if baseline is None:
            return
        base_modules = baseline.get("modules", {})
        live_modules = live["modules"]
        assert isinstance(live_modules, dict)
        for module in sorted(base_modules):
            base_entries = base_modules[module]
            if module not in live_modules:
                yield Finding(
                    code="AR020",
                    severity="error",
                    component=f"api[{module}]",
                    message=(
                        f"module {module} no longer exports a surface "
                        f"({len(base_entries)} baselined names gone); "
                        "if intentional, refresh with "
                        "'repro arch --write-api-baseline'"
                    ),
                    data={"baselined_names": len(base_entries)},
                )
                continue
            live_entries = live_modules[module]
            for name in sorted(base_entries):
                if name not in live_entries:
                    yield Finding(
                        code="AR020",
                        severity="error",
                        component=f"api[{module}.{name}]",
                        message=(
                            f"public export {module}.{name} was removed "
                            "from __all__; restore it or refresh the "
                            "API baseline to acknowledge the break"
                        ),
                        data={"was": str(base_entries[name].get("kind"))},
                    )
                    continue
                changed = _diff_keys(base_entries[name], live_entries[name])
                if changed:
                    yield Finding(
                        code="AR020",
                        severity="error",
                        component=f"api[{module}.{name}]",
                        message=(
                            f"public export {module}.{name} changed "
                            f"shape ({', '.join(changed)} differ); "
                            "breaking changes need a deliberate "
                            "baseline refresh"
                        ),
                        data={"changed_keys": ", ".join(changed)},
                    )
            undeclared = sorted(set(live_entries) - set(base_entries))
            for name in undeclared:
                yield Finding(
                    code="AR021",
                    severity="warning",
                    component=f"api[{module}.{name}]",
                    message=(
                        f"{module} exports {name} but the API baseline "
                        "has no record of it; refresh the baseline to "
                        "declare the new export"
                    ),
                    data={"kind": str(live_entries[name].get("kind"))},
                )
        for module in sorted(set(live_modules) - set(base_modules)):
            names = sorted(live_modules[module])
            yield Finding(
                code="AR021",
                severity="warning",
                component=f"api[{module}]",
                message=(
                    f"module {module} exports a surface "
                    f"({len(names)} names) absent from the API "
                    "baseline; refresh the baseline to declare it"
                ),
                data={"names": len(names)},
            )
