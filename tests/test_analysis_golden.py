"""Golden findings: every finding the analysis fixtures produce, pinned
with its message, data, severity and order.

``tests/data/analysis_golden.json`` holds three things:

* ``findings`` — the full finding records (code, severity, component,
  path, line, col, message, data) of every fixture the analysis test
  modules feed to ``lint_source``, ``audit_tree``, ``audit_slot`` and
  ``certify_solution``, one entry per call, named after the test that
  made it.  The call inputs are in ``analysis_golden_inputs.pickle``,
  recorded from those test runs (core and solver dataclasses, numpy
  arrays, fixture trees as ``{relative path: source}`` re-materialized
  under a temporary directory, ``<tmp>`` in paths);
* ``cli`` — the JSON reports of three canned ``repro audit`` /
  ``repro certify`` runs, with their exit codes;
* ``catalogs`` — the text of the four rule catalogs.

The test recomputes all of it and requires equality.  The other
analysis tests assert codes; this one also pins messages, data,
severities and order, so a refactor of the engine cannot change a
finding unnoticed.  Regenerate the files only when a finding changes
on purpose.
"""

import contextlib
import io
import json
import os
import pickle

from repro.analysis import get_rule
from repro.analysis.arch import audit_tree
from repro.analysis.certify import CertifyThresholds, certify_solution
from repro.analysis.model import AuditThresholds, audit_slot
from repro.analysis.runner import lint_source
from repro.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
TMP = "<tmp>"

#: The recorded attributes of each finding.
FIELDS = ("code", "severity", "component", "path", "line", "col", "message")


def _anchor(value, root):
    if root and isinstance(value, str):
        return value.replace(root, TMP)
    return value


def _record(finding, root):
    record = {key: _anchor(getattr(finding, key), root) for key in FIELDS}
    record["data"] = {k: _anchor(v, root) for k, v in finding.data.items()}
    return record


def _rooted(value, root):
    if isinstance(value, str):
        return value.replace(TMP, root)
    if isinstance(value, list):
        return [_rooted(v, root) for v in value]
    return value


def _materialize(files, root):
    for rel, source in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)


def _replay(kind, inputs, root):
    """Re-run one recorded call; returns (findings, anchor root)."""
    if kind == "lint":
        rules = inputs["rules"]
        return lint_source(
            inputs["source"], path=inputs["path"],
            rules=None if rules is None else [get_rule(c) for c in rules],
        ).findings, None
    if kind == "tree":
        anchor = None
        if inputs["files"] is not None:
            anchor = root
            _materialize(inputs["files"], root)
        return audit_tree(
            _rooted(inputs["paths"], root),
            contract=inputs["contract"],
            usage_paths=_rooted(inputs["usage_paths"], root),
            api_baseline=inputs["api_baseline"],
            api_baseline_path=_rooted(inputs["api_baseline_path"], root),
        ).findings, anchor
    kwargs = dict(inputs)
    thresholds = kwargs.pop("thresholds", None)
    if kind == "slot":
        if thresholds is not None:
            kwargs["thresholds"] = AuditThresholds(**thresholds)
        return audit_slot(**kwargs).findings, None
    if thresholds is not None:
        kwargs["thresholds"] = CertifyThresholds(**thresholds)
    return certify_solution(**kwargs).findings, None


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def _same(left, right):
    # Through JSON so NaN payloads compare equal to themselves.
    return json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)


def test_findings_match_the_golden_file(tmp_path):
    with open(os.path.join(DATA, "analysis_golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    with open(os.path.join(DATA, "analysis_golden_inputs.pickle"), "rb") as handle:
        inputs = pickle.load(handle)

    mismatches = []
    for number, entry in enumerate(golden["findings"]):
        root = str(tmp_path / f"tree{number}")
        recorded = pickle.loads(inputs[entry["id"]])
        try:
            findings, anchor = _replay(entry["kind"], recorded, root)
        except Exception as exc:  # noqa: BLE001 - compared to the record
            if entry.get("raises") != type(exc).__name__:
                mismatches.append((entry["id"], repr(exc)))
            continue
        got = [_record(f, anchor) for f in findings]
        if "raises" in entry or not _same(got, entry["findings"]):
            mismatches.append((entry["id"], got))

    for name, case in golden["cli"].items():
        code, out = _run_cli(case["argv"])
        if code != case["exit_code"] or not _same(json.loads(out), case["report"]):
            mismatches.append((name, code, out))

    for name, case in golden["catalogs"].items():
        code, out = _run_cli(case["argv"])
        if code != case["exit_code"] or out != case["text"]:
            mismatches.append((name, code, out))

    assert mismatches == []
