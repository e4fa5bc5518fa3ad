"""Tests for the streaming long-horizon runner."""

import math

import pytest

from repro.longrun import LongRunner, RunningStats, run_scenario
from repro.scenario import ScenarioSpec

SMALL = dict(
    pages=4,
    horizon_hours=1.5,
    rate_per_hour=300.0,
    shards=3,
    replication=2,
    rollup_hours=0.5,
    digest_filter_bits=8,
    shard_cycle_every_hours=0.5,
    shard_cycle_down_hours=0.2,
    shard_cycle_start_hours=0.25,
)


class TestRunningStats:
    def test_welford_matches_closed_form(self):
        stats = RunningStats()
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        for value in values:
            stats.add(value)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        out = stats.as_dict()
        assert out["count"] == len(values)
        assert out["mean"] == pytest.approx(mean)
        assert out["std"] == pytest.approx(math.sqrt(var))
        assert out["min"] == 1.0
        assert out["max"] == 9.0


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        spec = ScenarioSpec(**SMALL)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["chain"] == second["chain"]

    def test_seed_changes_stream(self):
        base = run_scenario(ScenarioSpec(**SMALL))
        reseeded = run_scenario(
            ScenarioSpec(**{**SMALL, "workload_seed": 7})
        )
        assert base["chain"] != reseeded["chain"]


class TestRollups:
    def test_window_count_covers_horizon(self):
        report = run_scenario(ScenarioSpec(**SMALL))
        expected = math.ceil(
            SMALL["horizon_hours"] / SMALL["rollup_hours"]
        )
        assert len(report["rollups"]) == expected

    def test_partial_final_window(self):
        spec = ScenarioSpec(
            **{**SMALL, "horizon_hours": 1.25, "rollup_hours": 0.5}
        )
        report = run_scenario(spec)
        rows = report["rollups"]
        assert len(rows) == 3
        assert rows[-1]["end_hours"] == pytest.approx(1.25)

    def test_rows_account_for_every_lookup(self):
        report = run_scenario(ScenarioSpec(**SMALL))
        windowed = sum(row["lookups"] for row in report["rollups"])
        assert windowed == report["totals"]["lookups"]
        assert (
            report["overall_latency"]["count"]
            == report["totals"]["lookups"]
        )

    def test_outage_windows_marked(self):
        # Outages [0.25, 0.55] and [0.75, 1.05] straddle the window
        # closes at 0.5 and 1.0, so those rows must name the victim.
        spec = ScenarioSpec(**{**SMALL, "shard_cycle_down_hours": 0.3})
        report = run_scenario(spec)
        assert any(row["down_shards"] for row in report["rollups"])
        assert report["totals"]["shard_wipes"] >= 1


class TestConstantMemory:
    def test_no_per_lookup_state_survives(self):
        runner = LongRunner(ScenarioSpec(**SMALL))
        runner.run_to(SMALL["horizon_hours"])
        # The bridge is forced off: no per-lookup samples anywhere.
        assert runner.service._samples == []
        # Resolver snapshot caches are trimmed at every batch tick.
        cached = sum(
            len(resolver._cache)
            for resolver in runner.service._resolvers.values()
        )
        assert cached == 0
        # Repeat-visit digests are bounded by user_pool x pages.
        assert len(runner._digests) <= SMALL["pages"] * 32


class TestLifecycle:
    def test_report_requires_finish(self):
        runner = LongRunner(ScenarioSpec(**SMALL))
        runner.run_to(0.5)
        with pytest.raises(RuntimeError, match="horizon"):
            runner.report()

    def test_clock_cannot_go_backwards(self):
        runner = LongRunner(ScenarioSpec(**SMALL))
        runner.run_to(1.0)
        with pytest.raises(ValueError):
            runner.run_to(0.5)

    def test_window_closes_before_the_tick_at_its_boundary(self):
        # Events at a rollup boundary belong to the next window: the
        # window closes first, then the boundary's batch tick runs.
        spec = ScenarioSpec(**SMALL)
        runner = LongRunner(spec)
        events = []
        tick, close = runner.service.process_batch, runner._close_window

        def ticking(now_hours):
            events.append(("tick", round(now_hours - spec.start_hour, 9)))
            tick(now_hours)

        def closing(end_hours):
            events.append(("close", round(end_hours, 9)))
            close(end_hours)

        runner.service.process_batch = ticking
        runner._close_window = closing
        runner.run_to(spec.horizon_hours)
        assert events == [
            ("tick", 0.25), ("close", 0.5), ("tick", 0.5),
            ("tick", 0.75), ("close", 1.0), ("tick", 1.0),
            ("tick", 1.25), ("close", 1.5), ("tick", 1.5),
        ]

    def test_incremental_equals_straight(self):
        spec = ScenarioSpec(**SMALL)
        straight = run_scenario(spec)
        period = spec.batch_period_hours
        # Off-grid stops, then a stop on every batch period: the second
        # list lands on every tick and every rollup boundary.
        for stops in (
            (0.3, 0.65, 1.1),
            tuple(
                k * period
                for k in range(1, math.ceil(spec.horizon_hours / period))
            ),
        ):
            stepped = LongRunner(spec)
            for stop in stops + (spec.horizon_hours,):
                stepped.run_to(stop)
            assert stepped.report()["fingerprint"] == straight["fingerprint"]
