"""HintService end to end: determinism, cold start, counters, tenants."""

import pytest

from repro.experiments.service import LookupObserver, observed_run
from repro.net.faults import FaultKind, FaultRule, fault_rule_from_dict
from repro.service.backend import HintService, ServiceConfig, tenant_of
from repro.service.placement import shard_outage_rule
from repro.service.store import StoreEntry
from repro.service.workload import Lookup, Workload


@pytest.fixture(scope="module")
def fleet(corpus):
    return corpus  # six News/Sports pages from the session fixture


def service_config(pages=6, **overrides):
    base = dict(
        pages=pages,
        horizon_hours=0.5,
        rate_per_hour=1600.0,
        freshness_hours=0.25,
        ttl_hours=6.0,
        crawl_budget_per_hour=24.0,
        seed=11,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def arrivals_within_horizon(config):
    """Lookups the stream offers up to the horizon: what a run serves."""
    workload = Workload(config.workload())
    count = 0
    while workload.next().when_hours <= config.horizon_hours:
        count += 1
    return count


@pytest.fixture(scope="module")
def offered():
    return arrivals_within_horizon(service_config())


class TestConstruction:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            HintService([], service_config(pages=0))

    def test_rejects_fleet_size_mismatch(self, fleet):
        with pytest.raises(ValueError):
            HintService(fleet, service_config(pages=5))

    def test_one_run_per_instance(self, fleet):
        service = HintService(fleet, service_config())
        service.run()
        with pytest.raises(RuntimeError):
            service.run()

    def test_rejects_nonpositive_horizon(self, fleet):
        with pytest.raises(ValueError, match="horizon"):
            HintService(fleet, service_config(horizon_hours=0.0))

    @pytest.mark.parametrize(
        "knobs, field",
        [
            (dict(ttl_hours=-1.0), "ttl_hours"),
            (dict(freshness_hours=-5.0), "freshness_hours"),
            (dict(user_pool=0), "user_pool"),
            (
                dict(reshard_add_at_hours=0.2, reshard_points_per_tick=0),
                "reshard_points_per_tick",
            ),
            (dict(frontend_cache_entries=-1), "frontend_cache_entries"),
        ],
        ids=["ttl", "freshness", "user-pool", "reshard-step", "frontend"],
    )
    def test_rejects_knobs_nothing_else_validates(self, fleet, knobs, field):
        with pytest.raises(ValueError, match=field):
            HintService(fleet, service_config(**knobs))

    def test_hints_only_fault_rule_survives_the_config_dict(self):
        # A hints_only shard rule never fires (shard health asks with
        # is_hint=False), so dropping the flag would make two configs
        # that run differently report the same config.
        rule = FaultRule(
            kind=FaultKind.SERVER_ERROR,
            url_substring="shard3",
            hints_only=True,
            not_before=1.0,
            not_after=2.0,
        )
        wire = service_config(shard_fault_rules=(rule,)).as_dict()
        assert wire["shard_fault_rules"][0]["hints_only"] is True
        assert fault_rule_from_dict(wire["shard_fault_rules"][0]) == rule


class TestResumableLoop:
    FLEET = dict(
        replication=2,
        frontend_cache_entries=2,
        batch_period_hours=0.1,
        shard_fault_rules=(
            shard_outage_rule(
                1,
                down_at_hours=ServiceConfig().start_hour + 0.15,
                up_at_hours=ServiceConfig().start_hour + 0.3,
            ),
        ),
    )

    @pytest.mark.parametrize(
        "stops",
        [(0.17,), tuple(k * 0.1 for k in range(1, 5))],
        ids=["off-grid", "every-tick"],
    )
    def test_sliced_run_equals_one_run(self, fleet, stops):
        config = service_config(**self.FLEET)
        asked = dict(sample_every=50, window=(0.15, 0.3), chain=True)
        whole = observed_run(fleet, config, **asked)
        sliced = HintService(fleet, config)
        observer = LookupObserver(fleet, config, **asked)
        for stop in stops:
            sliced.run_to(stop, observer)
        sliced.run_to(config.horizon_hours, observer)
        assert {"report": sliced.report(), **observer.results()} == whole

    def test_tick_runs_before_an_arrival_at_the_same_hour(self, fleet):
        service = HintService(fleet, service_config())
        period = service.config.batch_period_hours
        service._pending = Lookup(0, period, 0, "phone", "user0")
        service.workload.next = lambda: Lookup(1, 99.0, 0, "phone", "user0")
        order = []
        batch = service.process_batch
        service.process_batch = lambda now: (order.append("tick"), batch(now))
        service.run_to(period, lambda *served: order.append("lookup"))
        assert order == ["tick", "lookup"]

    def test_clock_clamps_to_horizon_and_never_runs_backwards(self, fleet):
        service = HintService(fleet, service_config())
        service.run_to(99.0)
        assert service.clock == service.config.horizon_hours
        with pytest.raises(ValueError, match="backwards"):
            service.run_to(0.1)

    def test_callback_sees_every_served_lookup(self, fleet, offered):
        seen = []
        service = HintService(fleet, service_config())
        service.run_to(
            0.5,
            lambda lookup, result, latency_ms: seen.append(
                (lookup.seq, result.status, latency_ms)
            ),
        )
        assert [seq for seq, _, _ in seen] == list(range(offered))
        assert service.report()["totals"]["lookups"] == offered


class TestDeterminism:
    def test_two_runs_bit_identical(self, fleet):
        first = HintService(fleet, service_config()).run()
        second = HintService(fleet, service_config()).run()
        assert first == second

    def test_seed_changes_the_run(self, fleet):
        first = HintService(fleet, service_config()).run()
        second = HintService(fleet, service_config(seed=12)).run()
        assert first != second


class TestColdStartAndWarmup:
    def test_first_lookup_of_every_key_misses(self, fleet):
        report = HintService(fleet, service_config()).run()
        assert report["totals"]["misses"] > 0
        # The store was empty at t=0: the very first decile serves the
        # least traffic from the store.
        warmup = report["warmup_hit_rate"]
        assert warmup[0] == min(warmup)
        assert warmup[-1] > warmup[0]

    def test_prewarm_eliminates_misses(self, fleet):
        report = HintService(
            fleet, service_config(prewarm=True, ttl_hours=50.0)
        ).run()
        assert report["totals"]["misses"] == 0
        assert report["totals"]["expired"] == 0
        assert report["totals"]["hit_rate"] == 1.0

    def test_lookups_are_conserved(self, fleet, offered):
        report = HintService(fleet, service_config()).run()
        totals = report["totals"]
        assert totals["lookups"] == offered
        assert (
            totals["hits"]
            + totals["stale_hits"]
            + totals["misses"]
            + totals["expired"]
            == offered
        )
        assert report["latency"]["samples"] == offered


class TestStoredRecords:
    """What offline resolution leaves in the store after prewarm and a
    few scheduler ticks."""

    def ticked(self, fleet):
        service = HintService(
            fleet, service_config(prewarm=True, horizon_hours=1.0)
        )
        service.run()
        assert service.scheduler.counters.executed > 0
        return service

    def test_stored_urls_are_sorted_and_distinct(self, fleet):
        # Lookups read a stored URL list as it is, without re-sorting.
        service = self.ticked(fleet)
        payloads = [
            entry.payload
            for shard in service.store.shard_list()
            for entry in shard._entries.values()
        ]
        assert len(payloads) == 2 * len(fleet)
        for payload in payloads:
            assert payload["urls"] == sorted(set(payload["urls"]))

    def test_resolution_builds_no_tree(self, fleet, count_materialize):
        service = self.ticked(fleet)
        assert count_materialize == []
        # A resolver holds only its page, period and window.
        assert all(
            set(vars(resolver)) == {"page", "period_hours", "window_loads"}
            for resolver in service._resolvers.values()
        )


class TestCountersAndReport:
    def test_shard_rows_sum_to_totals(self, fleet, offered):
        report = HintService(fleet, service_config()).run()
        assert sum(row["lookups"] for row in report["shards"]) == offered
        assert sum(row["samples"] for row in report["shards"]) == offered

    def test_tenants_cover_all_traffic(self, fleet, offered):
        report = HintService(fleet, service_config()).run()
        tenants = report["tenants"]
        assert sum(t["lookups"] for t in tenants.values()) == offered
        assert list(tenants) == sorted(tenants)
        for name in tenants:
            assert name == tenant_of(name + "123")

    def test_scheduler_spends_within_budget(self, fleet):
        report = HintService(fleet, service_config()).run()
        scheduler = report["scheduler"]
        assert scheduler["loads_spent"] > 0
        assert scheduler["budget_utilization"] <= 1.0

    def test_mid_run_report_is_a_snapshot(self, fleet):
        import json

        service = HintService(fleet, service_config())
        early = service.run_to(0.25).report()
        frozen = json.dumps(early, sort_keys=True)
        service.run_to(0.5)
        assert json.dumps(early, sort_keys=True) == frozen
        assert service.report() != early

    def test_report_dict_is_json_clean(self, fleet, offered):
        import json

        report = HintService(fleet, service_config()).run()
        payload = json.loads(json.dumps(report, sort_keys=True))
        assert payload == report
        assert payload["totals"]["lookups"] == offered


class TestBridgeSampling:
    """Bridge samples come from the observer on ``run_to``'s hook."""

    def test_sampling_collects_every_nth(self, fleet, offered):
        run = observed_run(fleet, service_config(), sample_every=100)
        assert [sample.seq for sample in run["samples"]] == list(
            range(0, offered, 100)
        )

    def test_miss_samples_carry_no_payload(self, fleet):
        run = observed_run(fleet, service_config(), sample_every=100)
        for sample in run["samples"]:
            if sample.status in ("miss", "expired"):
                assert sample.payload is None
                assert sample.computed_at_hours is None
            else:
                assert sample.payload is not None
                assert sample.computed_at_hours is not None
                assert sample.computed_at_hours <= sample.when_hours

    def test_sample_hour_is_the_hour_served(self, fleet, monkeypatch):
        served_at = {}
        serve = HintService.process_lookup

        def spy(service, lookup, now_hours):
            served_at[lookup.seq] = now_hours
            return serve(service, lookup, now_hours)

        monkeypatch.setattr(HintService, "process_lookup", spy)
        run = observed_run(fleet, service_config(), sample_every=100)
        assert run["samples"]
        for sample in run["samples"]:
            assert sample.when_hours == served_at[sample.seq]

    def test_disabled_by_default(self, fleet):
        assert set(observed_run(fleet, service_config())) == {"report"}


class TestSchedulerStaleness:
    def test_expired_entry_ranks_cold_not_below_cold(self, fleet):
        # Regression: a past-TTL entry used to report its raw age, which
        # the priority formula treated as *staler than* COLD_STALENESS —
        # no: the store will refuse to serve it, so it must rank as cold
        # (None), exactly like a key that was never resolved.
        service = HintService(fleet, service_config(ttl_hours=6.0))
        page = fleet[0]
        key = (page.name, "phone")
        service.store.insert(
            HintService.page_url(page),
            StoreEntry(
                page=page.name,
                device_class="phone",
                payload={"urls": [], "exemplars": {}},
                computed_at_hours=1000.0,
                size_bytes=64,
            ),
        )
        assert service._staleness_of(key, 1005.0) == pytest.approx(5.0)
        assert service._staleness_of(key, 1007.0) is None
        assert service._staleness_of((page.name, "tablet"), 1005.0) is None


class TestFleetRun:
    def test_outage_with_replication_keeps_serving(self, fleet):
        start = ServiceConfig(pages=6).start_hour
        rule = shard_outage_rule(
            0, down_at_hours=start + 0.1, up_at_hours=start + 0.3
        )

        def run(replication):
            config = service_config(
                prewarm=True,
                ttl_hours=50.0,
                replication=replication,
                shard_fault_rules=(rule,),
            )
            return observed_run(fleet, config, window=(0.1, 0.3))

        degraded, replicated = run(1), run(2)
        assert replicated["window"]["served_rate"] == 1.0
        assert replicated["report"]["totals"]["unavailable"] == 0
        if degraded["report"]["totals"]["unavailable"]:
            assert degraded["window"]["served_rate"] < 1.0
        events = replicated["report"]["placement"]["health_events"]
        assert [e["event"] for e in events if e["shard"] == 0] == [
            "down",
            "up",
        ]

    def test_fleet_run_is_deterministic(self, fleet):
        def run():
            start = ServiceConfig(pages=6).start_hour
            rule = shard_outage_rule(
                1, down_at_hours=start + 0.1, up_at_hours=start + 0.2
            )
            config = service_config(
                replication=2,
                frontend_cache_entries=2,
                shard_fault_rules=(rule,),
            )
            return observed_run(fleet, config, chain=True)

        assert run() == run()

    def test_live_reshard_mid_run_matches_control(self, fleet):
        def run(reshard_at):
            config = service_config(
                prewarm=True,
                ttl_hours=50.0,
                replication=2,
                reshard_add_at_hours=reshard_at,
                reshard_points_per_tick=16,
                batch_period_hours=0.05,
            )
            return observed_run(fleet, config, chain=True)

        control = run(None)
        resharded = run(0.1)
        assert control["chain"] == resharded["chain"]
        placement = resharded["report"]["placement"]
        assert placement["pending_points"] == 0
        assert len(placement["shards"]) == 9
        assert placement["migration"]["points_moved"] == 64

    def test_track_window_counts_only_window_lookups(self, fleet):
        config = service_config()
        start = config.start_hour
        workload = Workload(config.workload())
        inside = 0
        lookup = workload.next()
        while lookup.when_hours <= config.horizon_hours:
            inside += 0.1 <= (start + lookup.when_hours) - start < 0.3
            lookup = workload.next()
        run = observed_run(fleet, config, window=(0.1, 0.3))
        window = run["window"]
        assert 0 < inside < run["report"]["totals"]["lookups"]
        assert window["lookups"] == inside
        assert window["begin_hours"] == 0.1 and window["end_hours"] == 0.3
        assert 0 < window["served"] <= inside
        assert window["served_rate"] == round(window["served"] / inside, 6)


def test_tenant_of_strips_trailing_digits():
    assert tenant_of("news0") == "news"
    assert tenant_of("news12") == "news"
    assert tenant_of("42") == "42"
    assert tenant_of("sports") == "sports"
