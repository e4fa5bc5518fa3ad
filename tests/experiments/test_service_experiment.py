"""Service experiments: budget sweep monotonicity, smoke goldens."""

import pytest

from repro.experiments.service import (
    EXPECTED_SMOKE,
    KILL_SHARD_SERVED_FLOOR,
    SMOKE_CONFIG,
    service_benchmark,
    smoke_check,
    smoke_run,
    smoke_scenarios,
    staleness_experiment,
)


@pytest.fixture(scope="module")
def sweep(corpus):
    return staleness_experiment(
        corpus,
        budgets=(4.0, 12.0, 48.0),
        horizon_hours=2.0,
        rate_per_hour=1_500.0,
        bridge_sample_every=1_000,
        bridge_budgets=1,
        bridge_max_samples=2,
        bridge_with_loads=False,
        seed=7,
    )


class TestStalenessSweep:
    def test_stale_hit_rate_is_monotone_in_budget(self, sweep):
        assert sweep["monotone_stale_hit_rate"] is True
        rates = [row["stale_hit_rate"] for row in sweep["budgets"]]
        assert rates == sorted(rates, reverse=True)

    def test_prewarmed_runs_never_miss(self, sweep):
        for row in sweep["budgets"]:
            assert row["miss_rate"] == 0.0

    def test_bridge_attached_to_leading_budgets_only(self, sweep):
        rows = sweep["budgets"]
        assert "bridge" in rows[0]
        assert "bridge" not in rows[1]
        assert rows[0]["bridge"]["samples"] == 2

    def test_identical_traffic_across_budgets(self, sweep):
        # The workload is seed-driven: every run saw the same lookups.
        offered = {
            row["scheduler"]["budget_offered"]
            / row["crawl_budget_per_hour"]
            for row in sweep["budgets"]
        }
        assert len(offered) == 1  # same simulated duration everywhere


class TestSmoke:
    def test_smoke_matches_goldens(self):
        assert smoke_check(smoke_run()) == []

    def test_smoke_check_reports_drift(self):
        report = smoke_run()
        report["totals"]["hits"] += 1
        problems = smoke_check(report)
        assert len(problems) == 1
        assert "hits" in problems[0]

    def test_smoke_config_collects_no_samples(self):
        assert SMOKE_CONFIG.bridge_sample_every == 0
        # The pinned stream length is a Poisson draw around rate × horizon.
        offered = SMOKE_CONFIG.rate_per_hour * SMOKE_CONFIG.horizon_hours
        assert abs(EXPECTED_SMOKE["lookups"] - offered) < 3 * offered ** 0.5


class TestScenarios:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return smoke_scenarios()

    def test_scenarios_pass_their_invariants(self, scenarios):
        assert smoke_check(smoke_run(), scenarios) == []

    def test_replication_separates_the_outage(self, scenarios):
        rows = {
            row["replication"]: row for row in scenarios["kill_shard"]["rows"]
        }
        assert rows[2]["window"]["served_rate"] >= KILL_SHARD_SERVED_FLOOR
        assert rows[1]["window"]["served_rate"] < KILL_SHARD_SERVED_FLOOR
        # Identical workload either side: the gap is pure replication.
        assert rows[1]["window"]["lookups"] == rows[2]["window"]["lookups"]
        assert "bridge_window" in rows[1]  # degraded-mode hint quality

    def test_frontend_cache_absorbs_the_flash(self, scenarios):
        rows = {
            row["frontend_cache_entries"]: row
            for row in scenarios["flash_crowd"]["rows"]
        }
        capacity = max(rows)
        assert rows[capacity]["totals"]["frontend_hits"] > 0
        assert (
            rows[capacity]["latency"]["p50_ms"] < rows[0]["latency"]["p50_ms"]
        )

    def test_reshard_is_invisible_to_clients(self, scenarios):
        reshard = scenarios["reshard"]
        assert reshard["payloads_match"] is True
        assert reshard["audited"] is True
        assert reshard["shards_after"] == reshard["shards_before"] + 1
        assert reshard["migration"]["keys_moved"] >= 1

    def test_scenarios_are_deterministic(self, scenarios):
        assert smoke_scenarios() == scenarios


class TestServiceBenchmark:
    def test_payload_shape(self, corpus):
        payload = service_benchmark(
            corpus,
            horizon_hours=2.0,
            rate_per_hour=1_000.0,
            bridge_sample_every=0,
            budgets=(6.0, 60.0),
            scenarios=False,
        )
        assert payload["benchmark"] == "service"
        assert payload["report"]["duration_hours"] == 2.0
        assert payload["report"]["config"]["horizon_hours"] == 2.0
        assert "bridge" not in payload  # sampling disabled
        assert "scenarios" not in payload
        assert len(payload["staleness"]["budgets"]) == 2
