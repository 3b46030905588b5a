"""End-to-end tests for the ``repro bench`` CLI.

Drives :func:`repro.cli.main` exactly as a shell would: exit codes
(``0`` clean, ``1`` regression/rejected baseline, ``2`` usage error),
scenario selection, smoke mode, output placement, and every baseline
comparison outcome — pass, determinism drift, ratio regression,
malformed JSON, and an old schema version.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.bench.schema import SCHEMA_VERSION, bench_filename, load_record

#: The cheapest real scenario — 6 §VI slots in smoke mode.
FAST = "paper_scale"


def _bench(*argv):
    return main(["bench", *argv])


def _run_smoke(out_dir, scenario=FAST):
    code = _bench("--scenario", scenario, "--smoke", "--out", str(out_dir))
    assert code == 0
    return load_record(Path(out_dir) / bench_filename(scenario))


class TestUsageErrors:
    def test_no_selection_is_usage_error(self, tmp_path, capsys):
        assert _bench("--out", str(tmp_path)) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_all_and_scenario_conflict(self, tmp_path, capsys):
        assert _bench("--all", "--scenario", FAST,
                      "--out", str(tmp_path)) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        assert _bench("--scenario", "nope", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert FAST in err  # the catalog is listed to help the caller

    def test_negative_tolerance(self, tmp_path, capsys):
        assert _bench("--scenario", FAST, "--out", str(tmp_path),
                      "--tolerance", "-1") == 2
        assert "tolerance" in capsys.readouterr().err


class TestListAndRun:
    def test_list_prints_catalog(self, capsys):
        assert _bench("--list") == 0
        out = capsys.readouterr().out
        for name in ("paper_scale", "streaming_ingest", "fleet_10x",
                     "fleet_100x", "warm_vs_cold", "des_million"):
            assert name in out

    def test_smoke_run_writes_valid_record(self, tmp_path):
        record = _run_smoke(tmp_path)
        assert record["schema"] == SCHEMA_VERSION
        assert record["scenario"] == FAST
        assert record["mode"] == "smoke"
        assert record["timing"]["wall_s"] > 0

    def test_out_directory_is_created(self, tmp_path):
        nested = tmp_path / "does" / "not" / "exist"
        _run_smoke(nested)
        assert (nested / bench_filename(FAST)).exists()

    def test_scenario_flag_selects_only_that_scenario(self, tmp_path):
        _run_smoke(tmp_path)
        written = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert written == [bench_filename(FAST)]

    def test_seed_override_lands_in_record(self, tmp_path):
        code = _bench("--scenario", FAST, "--smoke", "--seed", "7",
                      "--out", str(tmp_path))
        assert code == 0
        record = load_record(tmp_path / bench_filename(FAST))
        assert record["seed"] == 7


class TestPeakMemory:
    def test_record_peak_is_the_scenarios_own(self, tmp_path):
        resource = pytest.importorskip("resource")
        # Touch far more memory here than a smoke run needs: a peak read
        # in this process would carry it into the record.
        ballast_mb = 256
        ballast = np.ones(ballast_mb * 2**20 // 8)
        record = _run_smoke(tmp_path)
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del ballast
        assert record["timing"]["peak_rss_mb"] < own_mb - ballast_mb / 2


class TestBaselineChecks:
    def test_missing_baseline_warns_but_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        empty = tmp_path / "baselines"
        empty.mkdir()
        code = _bench("--scenario", FAST, "--smoke", "--out", str(out),
                      "--check", "--baseline-dir", str(empty))
        assert code == 0
        assert "no baseline" in capsys.readouterr().out

    def test_identical_rerun_passes_check(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        _run_smoke(baseline_dir)
        out = tmp_path / "out"
        # Same machine, same mode, same seed: determinism must hold;
        # the wide tolerance keeps wall-time jitter out of the test.
        code = _bench("--scenario", FAST, "--smoke", "--out", str(out),
                      "--check", "--baseline-dir", str(baseline_dir),
                      "--tolerance", "5.0")
        assert code == 0
        assert ": OK" in capsys.readouterr().out

    def test_determinism_drift_fails(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        record = _run_smoke(baseline_dir)
        record["determinism"]["total_net_profit"] += 1.0
        path = baseline_dir / bench_filename(FAST)
        path.write_text(json.dumps(record))
        code = _bench("--scenario", FAST, "--smoke",
                      "--out", str(tmp_path / "out"),
                      "--check", "--baseline-dir", str(baseline_dir),
                      "--tolerance", "5.0")
        assert code == 1
        assert "determinism drift" in capsys.readouterr().out

    def test_ratio_regression_fails(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        record = _run_smoke(baseline_dir, scenario="des_million")
        # A baseline claiming an impossible speedup: the fresh run's
        # genuine ratio must land far below floor = 1000 * (1 - tol).
        record["timing"]["ratios"]["engine_speedup"] = 1000.0
        path = baseline_dir / bench_filename("des_million")
        path.write_text(json.dumps(record))
        code = _bench("--scenario", "des_million", "--smoke",
                      "--out", str(tmp_path / "out"),
                      "--check", "--baseline-dir", str(baseline_dir),
                      "--tolerance", "0.25")
        assert code == 1
        assert "ratio regression" in capsys.readouterr().out

    def test_malformed_json_baseline_fails(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        (baseline_dir / bench_filename(FAST)).write_text("{not json")
        code = _bench("--scenario", FAST, "--smoke",
                      "--out", str(tmp_path / "out"),
                      "--check", "--baseline-dir", str(baseline_dir))
        assert code == 1
        assert "baseline rejected" in capsys.readouterr().out

    def test_old_schema_baseline_fails(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        record = _run_smoke(baseline_dir)
        record["schema"] = "repro-bench/0"
        path = baseline_dir / bench_filename(FAST)
        path.write_text(json.dumps(record))
        code = _bench("--scenario", FAST, "--smoke",
                      "--out", str(tmp_path / "out"),
                      "--check", "--baseline-dir", str(baseline_dir))
        assert code == 1
        out = capsys.readouterr().out
        assert "schema" in out and "repro-bench/0" in out

    def test_non_object_baseline_fails(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        (baseline_dir / bench_filename(FAST)).write_text("[1, 2, 3]\n")
        code = _bench("--scenario", FAST, "--smoke",
                      "--out", str(tmp_path / "out"),
                      "--check", "--baseline-dir", str(baseline_dir))
        assert code == 1
        assert "baseline rejected" in capsys.readouterr().out
