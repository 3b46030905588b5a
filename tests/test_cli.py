"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cli_registry import (
    get_subcommand,
    register_subcommand,
    registered_subcommands,
)


class TestRegistry:
    def test_all_commands_registered(self):
        names = [sub.name for sub in registered_subcommands()]
        assert len(set(names)) == len(names)
        for expected in ("prices", "section5", "section6", "section7",
                         "validate", "sweep", "reproduce", "trace",
                         "lint", "audit", "bench", "stream"):
            assert expected in names, expected

    def test_duplicate_name_different_function_rejected(self):
        existing = get_subcommand("prices")

        with pytest.raises(ValueError, match="already registered"):
            @register_subcommand("prices", help_text="imposter")
            def other_run(args):
                return 0

        # Re-decorating the same function object is an idempotent no-op.
        again = register_subcommand("prices", help_text=existing.help_text)(
            existing.run
        )
        assert again is existing.run
        assert get_subcommand("prices").run is existing.run

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_subcommand("does-not-exist")

    def test_build_parser_idempotent(self):
        first = build_parser().parse_args(["stream", "--slots", "3"])
        second = build_parser().parse_args(["stream", "--slots", "3"])
        assert first.slots == second.slots == 3

    def test_stream_parse_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.scenario == "section6"
        assert args.policy == "drift"
        assert args.ticks_per_slot == 12
        assert args.synthesis == "fluid"
        assert args.estimation == "oracle"

    def test_stream_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--policy", "chaotic"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_section5_regime_choices(self):
        args = build_parser().parse_args(["section5", "--regime", "high"])
        assert args.regime == "high"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["section5", "--regime", "medium"])

    def test_section7_scales(self):
        args = build_parser().parse_args(
            ["section7", "--load-scale", "2.0", "--capacity-scale", "1.5"]
        )
        assert args.load_scale == 2.0
        assert args.capacity_scale == 1.5


class TestCommands:
    def test_prices(self, capsys):
        assert main(["prices"]) == 0
        out = capsys.readouterr().out
        assert "houston" in out
        assert "$/kWh" in out

    def test_section5(self, capsys):
        assert main(["section5", "--regime", "low"]) == 0
        out = capsys.readouterr().out
        assert "optimized" in out and "balanced" in out

    def test_section7(self, capsys):
        assert main(["section7"]) == 0
        out = capsys.readouterr().out
        assert "net profit" in out
        assert "o=optimized" in out

    def test_validate(self, capsys):
        assert main(["validate", "--utilization", "0.5",
                     "--horizon", "300"]) == 0
        out = capsys.readouterr().out
        assert "Eq.1" in out

    def test_validate_bad_utilization(self, capsys):
        assert main(["validate", "--utilization", "1.5"]) == 2
        assert "utilization" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "--servers", "2,4"]) == 0
        out = capsys.readouterr().out
        assert "fleet size" in out

    def test_sweep_bad_list(self, capsys):
        assert main(["sweep", "--servers", "two,four"]) == 2
        assert "servers" in capsys.readouterr().err

    def test_sweep_rejects_nonpositive(self, capsys):
        assert main(["sweep", "--servers", "0,2"]) == 2

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "traces.jsonl"
        assert main(["trace", "--scenario", "section6",
                     "--slots", "4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "warm-start outcomes" in stdout
        assert "hit=" in stdout  # simplex warm-starts across slots

        from repro.obs import read_traces
        traces = read_traces(out)
        assert [t.slot for t in traces] == [0, 1, 2, 3]
        for t in traces:
            assert t.phase_time_total <= t.total_time + 1e-9

    def test_trace_sparse_splits_the_solve_phases(self, capsys, tmp_path):
        out = tmp_path / "sparse-traces.jsonl"
        assert main(["trace", "--scenario", "section6", "--slots", "3",
                     "--sparse", "--out", str(out)]) == 0
        assert "sparse.cold_solves" in capsys.readouterr().out

        from repro.obs import read_traces
        traces = read_traces(out)
        assert [t.slot for t in traces] == [0, 1, 2]
        for t in traces:
            assert {"solve", "expand"} <= set(t.phase_times)
            assert "decompose" not in t.phase_times
            assert t.fallback == 0

    def test_trace_parallel_merges(self, capsys):
        assert main(["trace", "--scenario", "section6",
                     "--slots", "4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-slot solver traces" in out

    def test_trace_rejects_bad_workers(self, capsys):
        assert main(["trace", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err

    def test_stream_runs_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "stream.json"
        assert main(["stream", "--scenario", "section6", "--slots", "4",
                     "--ticks-per-slot", "4", "--policy", "drift",
                     "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "drift policy" in stdout and "full_solves=" in stdout
        summary = json.loads(out.read_text())
        assert summary["policy"] == "drift"
        assert summary["slots"] == 4
        assert summary["full_solves"] >= 1

    def test_stream_rejects_bad_ticks(self, capsys):
        assert main(["stream", "--ticks-per-slot", "0"]) == 2
        assert "ticks-per-slot" in capsys.readouterr().err

    def test_reproduce_writes_series(self, capsys, tmp_path):
        out = tmp_path / "results"
        assert main(["reproduce", "--out", str(out), "--skip-slow"]) == 0
        written = {p.name for p in out.iterdir()}
        expected = {
            "fig01_prices.txt", "fig04_low.txt", "fig04_high.txt",
            "fig05_traces.txt", "fig06_worldcup_profit.txt",
            "fig07_dispatch.txt", "fig08_google_profit.txt",
            "fig09_allocations.txt", "fig10_low.txt", "fig10_high.txt",
        }
        assert expected <= written
        # Fig. 11 skipped under --skip-slow.
        assert "fig11_computation_time.txt" not in written
        content = (out / "fig06_worldcup_profit.txt").read_text()
        assert "optimized" in content and "balanced" in content
