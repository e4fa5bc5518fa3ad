"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--configs", "warp"])


class TestCommands:
    def test_configs_lists_everything(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "vroom" in out
        assert "http2" in out
        assert "polaris" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "lte" in out and "2g" in out

    def test_load_prints_metrics(self, capsys):
        assert main(["load", "--configs", "http2", "--index", "0"]) == 0
        out = capsys.readouterr().out
        assert "PLT" in out
        assert "http2" in out

    def test_waterfall(self, capsys):
        assert main(["waterfall", "--config", "http2", "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "waterfall of" in out
        assert "plt" in out

    def test_audit(self, capsys):
        assert main(["audit", "--rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "hints on" in out
        assert "predictable subset" in out
        assert "FN" in out

    def test_figure_runs_small(self, capsys):
        assert main(["figure", "flux_calibration", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "flux" in out

    def test_figure_unknown_name(self, capsys):
        assert main(["figure", "fig99_nonexistent"]) == 2
        out = capsys.readouterr().out
        assert "unknown figure" in out

    def test_load_other_corpus(self, capsys):
        assert main(
            ["load", "--corpus", "alexa100", "--configs", "http2"]
        ) == 0
        out = capsys.readouterr().out
        assert "alexa" in out

    def test_device_option(self, capsys):
        assert main(
            ["load", "--configs", "cpu-bound", "--device", "oneplus3"]
        ) == 0

    def test_report(self, capsys):
        assert main(["report", "--configs", "http2", "vroom"]) == 0
        out = capsys.readouterr().out
        assert "# Report:" in out
        assert "critical path" in out
        assert "pushed" in out

    def test_load_from_blueprint_file(self, tmp_path, capsys, page):
        from repro.pages.serialization import dump_blueprint

        path = str(tmp_path / "custom.json")
        dump_blueprint(page, path)
        assert main(
            ["load", "--blueprint", path, "--configs", "http2"]
        ) == 0
        out = capsys.readouterr().out
        assert page.name in out


class TestServiceCommand:
    def test_smoke_passes_and_writes_report(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "smoke.json")
        assert main(["service", "--smoke", "--report", path]) == 0
        out = capsys.readouterr().out
        assert "smoke:" in out
        assert "hit rate" in out
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["benchmark"] == "service-smoke"
        assert payload["report"]["totals"]["lookups"] == 5078

    def test_full_run_prints_summary_and_sweep(self, tmp_path, capsys):
        path = str(tmp_path / "bench.json")
        assert main(
            [
                "service",
                "--pages",
                "6",
                "--hours",
                "2",
                "--rate",
                "1000",
                "--bridge-every",
                "0",
                "--budgets",
                "6",
                "60",
                "--report",
                path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "in 2.00 simulated hours" in out
        assert "stale-hit rate monotone in budget: True" in out


class TestCorpusGuards:
    def test_service_rejects_nonpositive_pages(self, capsys):
        assert main(["service", "--pages", "0", "--report", ""]) == 2
        assert "error:" in capsys.readouterr().err

    def test_service_rejects_nonpositive_lookups(self, capsys):
        # Traffic length is a horizon now: zero hours offers no lookups.
        assert main(
            ["service", "--hours", "0", "--report", ""]
        ) == 2
        assert "--hours" in capsys.readouterr().err

    def test_sweep_rejects_nonpositive_count(self, capsys):
        assert main(["sweep", "--count", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_resilience_rejects_nonpositive_count(self, capsys):
        assert main(["resilience", "--count", "-2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestLongrunCommand:
    def test_smoke_passes_and_writes_report(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "longrun.json")
        assert main(["longrun", "--smoke", "--report", path]) == 0
        out = capsys.readouterr().out
        assert "longrun:" in out
        assert "checkpoint/resume" in out
        assert "fingerprints match True" in out
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["benchmark"] == "longrun"
        assert payload["resume"]["match"] is True
        assert payload["ab"]["stream_identical"] is True

    def test_rejects_nonpositive_hours(self, capsys):
        assert main(["longrun", "--hours", "0", "--report", ""]) == 2
        assert "--hours" in capsys.readouterr().err

    def test_rejects_unknown_corpus(self, capsys):
        assert main(
            ["longrun", "--corpus", "nosuch", "--report", ""]
        ) == 2
        assert "unknown corpus" in capsys.readouterr().err

    def test_rejects_nonpositive_pages(self, capsys):
        assert main(
            ["longrun", "--hours", "2", "--pages", "-1", "--report", ""]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_checkpoint_outside_horizon(self, capsys):
        assert main(
            [
                "longrun",
                "--hours",
                "2",
                "--checkpoint-at",
                "5",
                "--report",
                "",
            ]
        ) == 2
        assert "--checkpoint-at" in capsys.readouterr().err


class TestBenchCommand:
    def test_engine_smoke_passes_and_writes_report(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "engine.json")
        assert main(["bench", "engine", "--smoke", "--report", path]) == 0
        out = capsys.readouterr().out
        assert "single-stream-drain" in out
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["benchmark"] == "engine"
        rows = {row["scenario"]: row for row in payload["scenarios"]}
        assert rows["push-all-high-rtt"]["event_reduction"] >= 2.0
        assert all(row["bit_identical"] for row in rows.values())

    def test_engine_rejects_unknown_target(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["bench", "nope"])
