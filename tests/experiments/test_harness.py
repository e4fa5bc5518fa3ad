"""Tests for the load matrix as experiments read it, and the report helpers."""

from repro.experiments.parallel import load_matrix
from repro.experiments.report import describe_series, print_figure
from repro.replay.cache import SnapshotCache


class TestLoadMatrix:
    def test_series_reads_rows(self, corpus):
        run = load_matrix(
            corpus[:2], ["http2", "vroom"], snapshots=SnapshotCache()
        )
        assert run.series("http2") == [row["http2"].plt for row in run.rows]
        assert run.series("vroom", "aft") == [
            row["vroom"].aft for row in run.rows
        ]

    def test_one_page_one_config_returns_metrics(self, page):
        (row,) = load_matrix([page], ["http2"]).rows
        assert row["http2"].plt > 0


class TestSweep:
    def test_sweep_collects_all(self, corpus):
        run = load_matrix(corpus[:2], ["http2", "vroom"])
        assert len(run.series("http2")) == 2
        assert len(run.series("vroom")) == 2

    def test_custom_metric(self, corpus):
        run = load_matrix(corpus[:2], ["http2"])
        assert all(value > 0 for value in run.series("http2", "aft"))

    def test_rows_per_page(self, corpus):
        run = load_matrix(corpus[:2], ["http2"])
        assert [list(row) for row in run.rows] == [["http2"], ["http2"]]

    def test_repeated_config_loads_once(self, corpus):
        run = load_matrix(
            corpus[:1], ["http2", "http2"], snapshots=SnapshotCache()
        )
        assert run.configs == ["http2"]
        assert run.perf.jobs == 1


class TestReport:
    def test_describe_series(self):
        row = describe_series("demo", [1.0, 2.0, 3.0], paper=2.5)
        assert "demo" in row
        assert "median" in row
        assert "paper~" in row

    def test_print_figure(self, capsys):
        block = print_figure("Fig X", {"a": [1.0, 2.0], "empty": []})
        out = capsys.readouterr().out
        assert "Fig X" in out
        assert "(empty)" in block
