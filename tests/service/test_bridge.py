"""Accuracy bridge: served-hint fidelity, scoring, end-to-end loads."""

import pytest

from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.offline import (
    OfflineResolver,
    StableSet,
    stable_set_from_dict,
)
from repro.service.backend import HintService, ServiceConfig
from repro.service.bridge import BridgeSample, evaluate_sample, evaluate_samples


@pytest.fixture(scope="module")
def sampled_run(corpus):
    config = ServiceConfig(
        pages=6,
        horizon_hours=1.5,  # entries go stale within it
        rate_per_hour=400.0,
        freshness_hours=0.25,
        ttl_hours=6.0,
        crawl_budget_per_hour=24.0,
        seed=5,
        bridge_sample_every=60,
    )
    return corpus, HintService(corpus, config).run()


def _sample_with(samples, status):
    for sample in samples:
        if sample.status == status:
            return sample
    pytest.skip(f"run produced no {status!r} sample")


class TestPrime:
    def test_primed_resolver_serves_the_stored_set(self, page):
        resolver = OfflineResolver(page)
        original = resolver.stable_set(DEFAULT_EVAL_HOUR, "phone")
        payload = resolver.stable_record(DEFAULT_EVAL_HOUR, "phone")

        fresh = OfflineResolver(page)
        fresh.prime(stable_set_from_dict(payload, page))
        served = fresh.stable_set(DEFAULT_EVAL_HOUR, "phone")
        assert served.urls == original.urls

    def test_prime_rejects_foreign_pages(self, corpus):
        resolver = OfflineResolver(corpus[0])
        alien = StableSet(
            page=corpus[1].name, device_class="phone", as_of_hours=1.0
        )
        with pytest.raises(ValueError):
            resolver.prime(alien)


class TestEvaluateSample:
    def test_miss_scores_zero_recall_and_loads_without_hints(
        self, sampled_run
    ):
        pages, report = sampled_run
        sample = _sample_with(report.samples, "miss")
        row = evaluate_sample(pages[sample.page_index], sample)
        assert row["staleness_hours"] is None
        assert row["served"]["returned"] == 0
        assert row["served"]["recall"] == 0.0
        assert row["served"]["precision"] == 1.0
        # A miss degrades to the no-hint fallback: identical loads.
        assert row["plt_served"] == row["plt_no_hints"]
        assert row["plt_oracle"] <= row["plt_no_hints"]

    def test_served_hits_score_against_predictable_set(self, sampled_run):
        pages, report = sampled_run
        sample = _sample_with(report.samples, "stale_hit")
        row = evaluate_sample(pages[sample.page_index], sample)
        assert row["staleness_hours"] > 0.25
        assert row["served"]["returned"] > 0
        assert 0.0 < row["served"]["precision"] <= 1.0
        assert 0.0 < row["served"]["recall"] <= 1.0
        assert row["plt_served"] < row["plt_no_hints"]

    def test_without_loads_is_scores_only(self, sampled_run):
        pages, report = sampled_run
        sample = report.samples[0]
        row = evaluate_sample(
            pages[sample.page_index], sample, with_loads=False
        )
        assert "plt_served" not in row
        assert "served" in row and "oracle" in row


class TestEvaluateSamples:
    def test_aggregate_shape_and_determinism(self, sampled_run):
        pages, report = sampled_run
        first = evaluate_samples(pages, report.samples, max_samples=4)
        second = evaluate_samples(pages, report.samples, max_samples=4)
        assert first == second
        aggregate = first["aggregate"]
        assert aggregate["samples"] == 4
        assert len(first["rows"]) == 4
        assert 0.0 <= aggregate["precision_mean"] <= 1.0
        assert aggregate["plt_no_hints_mean"] > 0

    def test_max_samples_bounds_the_work(self, sampled_run):
        pages, report = sampled_run
        out = evaluate_samples(
            pages, report.samples, max_samples=2, with_loads=False
        )
        assert out["aggregate"]["samples"] == 2

    def test_empty_input(self, corpus):
        out = evaluate_samples(corpus, [])
        assert out["aggregate"]["samples"] == 0
        assert out["rows"] == []


def test_bridge_sample_is_frozen():
    sample = BridgeSample(
        seq=0,
        when_hours=1.0,
        page_index=0,
        page="news0",
        device_class="phone",
        user="user0",
        status="miss",
        computed_at_hours=None,
        payload=None,
    )
    with pytest.raises(AttributeError):
        sample.seq = 1
