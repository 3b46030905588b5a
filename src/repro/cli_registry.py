"""Subcommand registry for the ``repro`` CLI.

Each subsystem registers its subcommand with
:func:`register_subcommand` instead of being hand-wired into
``repro.cli.build_parser`` — the parser and the dispatch table are both
derived from the registry, so adding a command is one decorator in the
owning module, not three edits in ``cli.py``.

This module is import-light on purpose (stdlib only): subsystem CLI
modules import it at module scope without dragging the scientific
stack in, and ``repro.cli`` imports *them* for the registration side
effect.  Registration is idempotent per function object, so repeated
imports and repeated ``build_parser()`` calls are safe.

The commands that take ``--scenario`` share :data:`SCENARIOS` and
:func:`scenario_experiment`, which imports the one experiment module it
builds when called.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SCENARIOS",
    "Subcommand",
    "get_subcommand",
    "register_subcommand",
    "registered_subcommands",
    "scenario_experiment",
]

RunFunc = Callable[[argparse.Namespace], int]
ConfigureFunc = Callable[[argparse.ArgumentParser], None]


@dataclass(frozen=True)
class Subcommand:
    """One registered ``repro <name>`` subcommand."""

    name: str
    help_text: str
    run: RunFunc
    #: Optional hook adding the subcommand's arguments to its subparser.
    configure: Optional[ConfigureFunc] = None


_REGISTRY: Dict[str, Subcommand] = {}


def register_subcommand(
    name: str,
    help_text: str,
    configure: Optional[ConfigureFunc] = None,
) -> Callable[[RunFunc], RunFunc]:
    """Register ``repro <name>``; decorates the run function.

    The decorated function receives the parsed
    :class:`argparse.Namespace` and returns a process exit code.
    Re-registering the *same* function under the same name is a no-op
    (idempotent across repeated imports); registering a different
    function under a taken name raises ``ValueError``.
    """

    def wrap(run: RunFunc) -> RunFunc:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.run is not run:
            raise ValueError(
                f"subcommand {name!r} is already registered "
                f"(by {existing.run.__module__}.{existing.run.__qualname__})"
            )
        _REGISTRY[name] = Subcommand(
            name=name, help_text=help_text, run=run, configure=configure
        )
        return run

    return wrap


def registered_subcommands() -> List[Subcommand]:
    """All registered subcommands in registration order."""
    return list(_REGISTRY.values())


def get_subcommand(name: str) -> Subcommand:
    """Look up one subcommand; raises ``KeyError`` when unknown."""
    return _REGISTRY[name]


#: The experiments a ``--scenario`` flag names.
SCENARIOS = ("section5", "section6", "section7")


def scenario_experiment(scenario: str) -> Any:
    """The default experiment of one :data:`SCENARIOS` name.

    ``section5`` is the §V study at its low regime.
    """
    if scenario == "section5":
        from repro.experiments.section5 import section5_experiment
        return section5_experiment("low")
    if scenario == "section6":
        from repro.experiments.section6 import section6_experiment
        return section6_experiment()
    from repro.experiments.section7 import section7_experiment
    return section7_experiment()
