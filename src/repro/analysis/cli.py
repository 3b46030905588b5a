"""The analysis subcommands, built from the engine's targets (wired up
by :mod:`repro.cli`).

``repro lint``, ``audit``, ``certify`` and ``arch`` each run one target
of :mod:`repro.analysis.engine` and print its findings (``--format
text|json``; ``--out FILE`` keeps the JSON report).  ``repro check``
runs all four in one process.  Exit codes:

* ``0`` — the target's gate passed (``lint``/``arch``: no finding at
  all; ``audit``/``certify``: no error-severity finding);
* ``1`` — the gate failed;
* ``2`` — usage error (bad path or slot, corrupt baseline, unwritable
  report); ``repro check`` exits with the worst code of its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.engine import PROBLEM, SOLUTION, SOURCE, TARGETS, TREE, Report, Target
from repro.analysis.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Finding,
    apply_baseline,
    read_baseline,
    render_findings_json,
    summarize,
    worst_exit_code,
    write_baseline,
)
from repro.cli_registry import register_subcommand

__all__ = ["CHECK_NAMES", "run_checks"]

#: ``repro check`` order: cheap AST passes first, solver-backed last.
CHECK_NAMES = tuple(target.command for target in TARGETS)

_SCENARIOS = ("section5", "section6", "section7")
_DEFAULT_PATHS = ["src"]
_DEFAULT_API_BASELINE = "API_SURFACE.json"


# ------------------------------------------------------------- arguments


def _add_paths(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH", help=help_text,
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="additionally write the JSON report to this file",
    )


def _add_baseline(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline", type=str, default=None, metavar="FILE",
        help="filter findings recorded in this baseline file; new "
             "findings still fail the run",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline FILE and exit 0",
    )


def _add_scenario(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--scenario", choices=list(_SCENARIOS), default="section6",
        help=help_text,
    )


def _add_catalog(
    parser: argparse.ArgumentParser, flag: str, help_text: str
) -> None:
    parser.add_argument(
        flag, dest="catalog", action="store_true", help=help_text,
    )


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    _add_paths(parser, "files or directories to lint (default: src)")
    _add_format(parser)
    _add_baseline(parser)
    _add_catalog(
        parser, "--list-rules",
        "print the rule catalog (code, name, rationale) and exit",
    )


def _arch_arguments(parser: argparse.ArgumentParser) -> None:
    _add_paths(parser, "package roots to audit (default: src)")
    _add_format(parser)
    _add_out(parser)
    _add_baseline(parser)
    parser.add_argument(
        "--api-baseline", type=str, default=_DEFAULT_API_BASELINE,
        metavar="FILE",
        help="API-surface snapshot to diff against (default: "
             "API_SURFACE.json; a missing file disables the diff)",
    )
    parser.add_argument(
        "--write-api-baseline", action="store_true",
        help="write the live API surface to --api-baseline FILE and "
             "exit 0 (the deliberate way to accept surface changes)",
    )
    parser.add_argument(
        "--usage-path", action="append", default=None, metavar="PATH",
        dest="usage_paths",
        help="extra tree consulted for name usage (repeatable; "
             "default: tests, benchmarks, examples when present)",
    )
    _add_catalog(
        parser, "--list-rules",
        "print the AR rule catalog (codes, rationale) and exit",
    )


def _audit_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario(
        parser, "experiment whose slot problem to audit (default: section6)"
    )
    parser.add_argument(
        "--slot", type=int, default=0,
        help="slot index within the scenario's trace (default: 0)",
    )
    parser.add_argument(
        "--big", type=float, default=None,
        help="big-M constant to audit (default: the bigm path's default)",
    )
    _add_format(parser)
    _add_out(parser)
    parser.add_argument(
        "--bigm-ratio-limit", type=float, default=None,
        help="flag BIG more than this factor above the data-driven "
             "minimum (default: 100)",
    )
    parser.add_argument(
        "--row-decades-limit", type=float, default=None,
        help="flag rows/columns spanning more than this many log10 "
             "decades (default: 6)",
    )
    _add_catalog(
        parser, "--list-checks",
        "print the audit check catalog (codes, rationale) and exit",
    )


def _certify_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario(
        parser,
        "experiment whose slots to solve and certify (default: section6)",
    )
    parser.add_argument(
        "--slot", type=int, default=0,
        help="certify this slot (the optimizer still warms up from "
             "slot 0 so the certified solve is the realistic "
             "warm-started one; default: 0)",
    )
    parser.add_argument(
        "--slots", type=int, default=None, metavar="N",
        help="certify slots 0..N-1 instead of a single slot "
             "(e.g. the scenario's full day)",
    )
    parser.add_argument(
        "--method",
        choices=["auto", "lp", "milp", "bigm", "greedy"], default="auto",
        help="level method to solve with (default: auto)",
    )
    parser.add_argument(
        "--lp-method", choices=["highs", "simplex", "ipm"],
        default="highs", help="LP backend (default: highs)",
    )
    parser.add_argument(
        "--sparse", action="store_true",
        help="route slot LPs through the sparse/decomposed path",
    )
    _add_format(parser)
    _add_out(parser)
    _add_catalog(
        parser, "--list-checks",
        "print the certificate check catalog (codes, rationale) and exit",
    )


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    _add_paths(parser, "tree passed to the lint and arch checks (default: src)")
    parser.add_argument(
        "--skip", action="append", default=None,
        choices=list(CHECK_NAMES), metavar="CHECK",
        help="skip one check (repeatable); recorded in the report",
    )
    _add_scenario(
        parser,
        "scenario for the audit and certify checks (default: section6)",
    )
    parser.add_argument(
        "--slot", type=int, default=0,
        help="slot audited by the audit check (default: 0)",
    )
    parser.add_argument(
        "--certify-slots", type=int, default=1, metavar="N",
        help="certify slots 0..N-1 (default: 1)",
    )
    parser.add_argument(
        "--api-baseline", type=str, default=_DEFAULT_API_BASELINE,
        metavar="FILE",
        help="API-surface snapshot for the arch check "
             "(default: API_SURFACE.json)",
    )
    _add_format(parser)
    _add_out(parser)


# --------------------------------------------------------------- runners


def _experiment(scenario: str, flag: str, value: int, first: int = 0) -> Any:
    """Build ``scenario``'s experiment after checking one slot flag.

    Index flags (``--slot``, ``first=0``) take ``0..T-1`` and count
    flags (``--slots``, ``--certify-slots``, ``first=1``) take
    ``1..T``, where ``T`` is the scenario's slot count: the trace wraps
    around, so a later slot would silently re-run an earlier one.
    """
    if value < first:
        raise ValueError(f"{flag} must be >= {first} (got {value})")
    if scenario == "section5":
        from repro.experiments.section5 import section5_experiment
        exp = section5_experiment("low")
    elif scenario == "section6":
        from repro.experiments.section6 import section6_experiment
        exp = section6_experiment()
    else:
        from repro.experiments.section7 import section7_experiment
        exp = section7_experiment()
    last = exp.trace.num_slots - 1 + first
    if value > last:
        raise ValueError(
            f"{flag} must be <= {last} for {scenario}, which has "
            f"{exp.trace.num_slots} slot(s) (got {value})"
        )
    return exp


def _lint(paths: List[str]) -> Report:
    from repro.analysis.runner import lint_paths

    return lint_paths(paths)


def _arch(
    paths: List[str], usage_paths: Optional[List[str]], api_baseline: str
) -> Report:
    from repro.analysis.arch import audit_tree

    return audit_tree(
        paths, usage_paths=usage_paths, api_baseline_path=api_baseline,
    )


def _audit(
    scenario: str,
    slot: int,
    big: Optional[float] = None,
    bigm_ratio_limit: Optional[float] = None,
    row_decades_limit: Optional[float] = None,
) -> Report:
    from repro.analysis.model import AuditThresholds, audit_slot
    from repro.core.formulation import SlotInputs

    exp = _experiment(scenario, "--slot", slot)
    thresholds = AuditThresholds()
    if bigm_ratio_limit is not None:
        thresholds.bigm_ratio_limit = bigm_ratio_limit
    if row_decades_limit is not None:
        thresholds.row_decades_limit = row_decades_limit
    inputs = SlotInputs(
        topology=exp.topology,
        arrivals=exp.trace.arrivals_at(slot),
        prices=exp.market.prices_at(slot),
    )
    return audit_slot(inputs, big=big, thresholds=thresholds)


def _certify(
    scenario: str,
    exp: Any,
    slots: List[int],
    method: str = "auto",
    lp_method: str = "highs",
    sparse: bool = False,
) -> Report:
    """Solve slots 0..max(slots) and collect certificates for ``slots``.

    Findings are re-anchored with a ``slot<N>:`` component prefix so a
    multi-slot report stays readable; details list the slots certified
    and the solver counters.
    """
    from repro.core.config import OptimizerConfig
    from repro.core.optimizer import ProfitAwareOptimizer
    from repro.obs import InMemoryCollector

    collector = InMemoryCollector()
    config = OptimizerConfig(
        level_method=method,
        lp_method=lp_method,
        sparse=sparse,
        certify="warn",
        collector=collector,
    )
    optimizer = ProfitAwareOptimizer(exp.topology, config=config)
    wanted = set(slots)
    for slot in range(max(slots) + 1):
        optimizer.plan_slot(
            exp.trace.arrivals_at(slot), exp.market.prices_at(slot)
        )
    findings: List[Finding] = []
    for trace in collector.slot_traces:
        if trace.slot not in wanted:
            continue
        for record in trace.certificates:
            findings.append(Finding(
                code=record["code"],
                severity=record["severity"],
                component=f"slot{trace.slot}:{record['component']}",
                message=record["message"],
                data=record.get("data", {}),
            ))
    details = {
        "scenario": scenario,
        "slots_certified": sorted(wanted),
        "solves_certified": collector.counters.get(
            "optimizer.certifies", 0
        ),
        "solves_skipped": collector.counters.get(
            "optimizer.certify_skipped", 0
        ),
    }
    return Report(target=SOLUTION, findings=findings, details=details)


def _certify_args(args: argparse.Namespace) -> Report:
    if args.slots is not None:
        exp = _experiment(args.scenario, "--slots", args.slots, first=1)
        slots = list(range(args.slots))
    else:
        exp = _experiment(args.scenario, "--slot", args.slot)
        slots = [args.slot]
    return _certify(
        args.scenario, exp, slots, args.method, args.lp_method, args.sparse,
    )


def _severity_summary(report: Report) -> str:
    findings, errors = len(report.findings), len(report.errors)
    warnings = len(report.warnings)
    return (
        f"{findings} finding(s): {errors} error(s), {warnings} "
        f"warning(s), {findings - errors - warnings} info"
    )


def _file_summary(report: Report, unit: str, baselined: int) -> str:
    summary = f"{len(report.findings)} finding(s) in {unit}"
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    if baselined:
        summary += f", {baselined} baselined"
    return summary


def _certify_footer(args: argparse.Namespace, report: Report) -> str:
    slots = report.details["slots_certified"]
    label = slots[0] if len(slots) == 1 else f"0..{slots[-1]}"
    return (
        f"{args.scenario} slot(s) {label}: "
        f"{report.details['solves_certified']:g} solve(s) certified, "
        + _severity_summary(report)
    )


def _lint_json(report: Report, baselined: int) -> str:
    findings = [f.to_dict() for f in report.findings]
    return json.dumps(
        {
            "findings": findings,
            "summary": {
                "findings": len(findings),
                "suppressed": report.suppressed,
                "baselined": baselined,
                "files_checked": report.details["files_checked"],
            },
        },
        indent=2,
    )


def _arch_json(report: Report, baselined: int) -> str:
    details = {**report.details, "baselined": baselined}
    return render_findings_json(report.findings, details=details)


def _json(report: Report, baselined: int) -> str:
    return report.render_json()


@dataclass(frozen=True)
class _Command:
    """One target's subcommand: flags, run, and report renderers (the
    JSON one also writes ``--out``; both take the baselined count)."""

    help_text: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], Report]
    footer: Callable[[argparse.Namespace, Report, int], str]
    to_json: Callable[[Report, int], str] = _json


#: One subcommand per target; order is the display order in ``--help``.
_COMMANDS: Dict[Target, _Command] = {
    SOURCE: _Command(
        help_text="domain-aware static analysis (reprolint); exit 1 on "
                  "findings",
        configure=_lint_arguments,
        run=lambda args: _lint(args.paths or _DEFAULT_PATHS),
        footer=lambda args, report, baselined: _file_summary(
            report, f"{report.details['files_checked']} file(s)", baselined
        ),
        to_json=_lint_json,
    ),
    PROBLEM: _Command(
        help_text="static formulation audit of a slot problem; exit 1 on "
                  "MD-level errors",
        configure=_audit_arguments,
        run=lambda args: _audit(
            args.scenario, args.slot, args.big,
            args.bigm_ratio_limit, args.row_decades_limit,
        ),
        footer=lambda args, report, baselined: (
            f"{args.scenario} slot {args.slot}: " + _severity_summary(report)
        ),
    ),
    SOLUTION: _Command(
        help_text="solve scenario slots and independently verify the "
                  "optimality certificates; exit 1 on CT-level errors",
        configure=_certify_arguments,
        run=_certify_args,
        footer=lambda args, report, baselined: _certify_footer(args, report),
    ),
    TREE: _Command(
        help_text="audit import layering, the public-API surface lock, "
                  "dead code, and hot-path purity; exit 1 on findings",
        configure=_arch_arguments,
        run=lambda args: _arch(
            args.paths or _DEFAULT_PATHS, args.usage_paths, args.api_baseline
        ),
        footer=lambda args, report, baselined: _file_summary(
            report, f"{report.details['modules']} module(s)", baselined
        ),
        to_json=_arch_json,
    ),
}


def _print_catalog(target: Target) -> None:
    for rule in target.rules():
        print(f"{rule.code}  {rule.name}")
        for code in sorted(rule.codes):
            print(f"    {code}: {rule.codes[code]}")
        print(f"    {rule.rationale}")


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {what}: {exc}") from exc


def _write_api_baseline(args: argparse.Namespace) -> None:
    from repro.analysis.arch import (
        build_api_surface,
        build_tree_index,
        render_api_surface,
    )

    surface = build_api_surface(build_tree_index(args.paths or _DEFAULT_PATHS))
    _write(args.api_baseline, render_api_surface(surface), "API baseline")
    modules = surface["modules"]
    assert isinstance(modules, dict)
    names = sum(len(entries) for entries in modules.values())
    print(
        f"wrote API surface ({len(modules)} module(s), "
        f"{names} export(s)) to {args.api_baseline}"
    )


def _exit_code(run: Callable[[], int]) -> int:
    """``run()``'s exit code, or ``2`` after printing a usage error: a
    bad flag, a missing path, an unreadable baseline or snapshot."""
    try:
        return run()
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _gate(target: Target, args: argparse.Namespace) -> int:
    """Run one target's subcommand; returns the exit code."""
    if args.catalog:
        _print_catalog(target)
        return EXIT_CLEAN
    return _exit_code(lambda: _run(target, args))


def _run(target: Target, args: argparse.Namespace) -> int:
    command = _COMMANDS[target]
    baseline_path = getattr(args, "baseline", None)
    if getattr(args, "write_baseline", False) and baseline_path is None:
        raise ValueError("--write-baseline requires --baseline FILE")
    report = command.run(args)
    if getattr(args, "write_api_baseline", False):
        _write_api_baseline(args)
        return EXIT_CLEAN
    if baseline_path is not None and args.write_baseline:
        count = write_baseline(report.findings, baseline_path)
        print(f"wrote {count} finding(s) to baseline {baseline_path}")
        return EXIT_CLEAN
    baselined = 0
    if baseline_path is not None:
        try:
            baseline = read_baseline(baseline_path, target)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read baseline: {exc}") from exc
        report.findings, baselined = apply_baseline(report.findings, baseline)

    if getattr(args, "out", None) is not None:
        _write(args.out, command.to_json(report, baselined) + "\n", "report")
    exit_code = EXIT_CLEAN if report.clean else EXIT_FINDINGS
    if args.format == "json":
        print(command.to_json(report, baselined))
        return exit_code
    if report.findings or target.clean_text:
        print(report.render_text())
    footer = command.footer(args, report, baselined)
    print(("\n" if report.findings else "") + footer)
    return exit_code


def _register_commands() -> None:
    for target, command in _COMMANDS.items():

        def run(args: argparse.Namespace, target: Target = target) -> int:
            return _gate(target, args)

        register_subcommand(
            target.command,
            help_text=command.help_text,
            configure=command.configure,
        )(run)


_register_commands()


# ------------------------------------------------------------ repro check


def run_checks(
    paths: List[str],
    *,
    skip: Tuple[str, ...] = (),
    scenario: str = "section6",
    slot: int = 0,
    certify_slots: int = 1,
    api_baseline: str = _DEFAULT_API_BASELINE,
) -> Tuple[int, Dict]:
    """Run every non-skipped target; returns (exit_code, report dict).

    The report shape is stable for scripting::

        {"checks": {name: {"exit_code", "findings", "summary",
                           "details"} | {"skipped": true}},
         "summary": {"exit_code", "ran", "skipped"}}
    """
    runs: Dict[Target, Callable[[], Report]] = {
        SOURCE: lambda: _lint(paths),
        TREE: lambda: _arch(paths, None, api_baseline),
        PROBLEM: lambda: _audit(scenario, slot),
        SOLUTION: lambda: _certify(
            scenario,
            _experiment(scenario, "--certify-slots", certify_slots, first=1),
            list(range(certify_slots)),
        ),
    }
    checks: Dict[str, Dict] = {}
    codes: List[int] = []
    ran: List[str] = []
    for target in TARGETS:
        name = target.command
        if name in skip:
            checks[name] = {"skipped": True}
            continue
        try:
            report = runs[target]()
        except (FileNotFoundError, ValueError) as exc:
            code, payload = EXIT_USAGE, {"error": str(exc)}
        else:
            findings = [f.to_dict() for f in report.findings]
            code = EXIT_CLEAN if report.clean else EXIT_FINDINGS
            # The audit entry names the audited slot; the tightened
            # constants and matrix summaries stay in `repro audit`'s report.
            payload = {
                "findings": findings,
                "summary": summarize(findings),
                "details": (
                    {"scenario": scenario, "slot": slot}
                    if target is PROBLEM else report.details
                ),
            }
        checks[name] = {"exit_code": code, **payload}
        codes.append(code)
        ran.append(name)
    exit_code = worst_exit_code(codes)
    report_dict = {
        "checks": checks,
        "summary": {
            "exit_code": exit_code,
            "ran": ran,
            "skipped": sorted(skip),
        },
    }
    return exit_code, report_dict


@register_subcommand(
    "check",
    help_text="run lint + arch + audit + certify in one gate; "
              "worst-of exit code",
    configure=_check_arguments,
)
def run_check(args: argparse.Namespace) -> int:
    """Execute ``repro check`` for parsed ``args``; returns the exit
    code."""
    return _exit_code(lambda: _check(args))


def _check(args: argparse.Namespace) -> int:
    _experiment(args.scenario, "--certify-slots", args.certify_slots, first=1)
    _experiment(args.scenario, "--slot", args.slot)
    exit_code, report = run_checks(
        args.paths or _DEFAULT_PATHS,
        skip=tuple(dict.fromkeys(args.skip or ())),
        scenario=args.scenario,
        slot=args.slot,
        certify_slots=args.certify_slots,
        api_baseline=args.api_baseline,
    )

    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        _write(args.out, rendered + "\n", "report")

    if args.format == "json":
        print(rendered)
        return exit_code

    for name in CHECK_NAMES:
        entry = report["checks"][name]
        if entry.get("skipped"):
            print(f"{name:8s} skipped")
            continue
        if "error" in entry:
            print(f"{name:8s} usage error: {entry['error']}")
            continue
        summary = entry["summary"]
        verdict = "ok" if entry["exit_code"] == EXIT_CLEAN else "FAIL"
        print(
            f"{name:8s} {verdict}  {summary['findings']} finding(s): "
            f"{summary['errors']} error(s), "
            f"{summary['warnings']} warning(s), {summary['info']} info"
        )
    print(f"check: exit {exit_code}")
    return exit_code
