"""Accuracy bridge: served-hint fidelity, scoring, end-to-end loads."""

import json

import pytest

from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.offline import CLASS_EMULATION_DEVICE, OfflineResolver
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.experiments.service import observed_run
from repro.pages.dynamics import LoadStamp
from repro.service.backend import ServiceConfig
from repro.service.bridge import (
    BridgeSample,
    _served_resolver,
    evaluate_sample,
    evaluate_samples,
)


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
    )
    return corpus, observed_run(corpus, config, sample_every=60)["samples"]


def _sample_with(samples, status):
    for sample in samples:
        if sample.status == status:
            return sample
    pytest.skip(f"run produced no {status!r} sample")


def _rows(bundle):
    return [
        (hint.url, hint.priority, hint.order, hint.size_estimate)
        for hint in bundle
    ]


class TestPrime:
    def test_primed_resolver_serves_the_stored_set(
        self, page, snapshot, monkeypatch
    ):
        payload = OfflineResolver(page).stable_set(DEFAULT_EVAL_HOUR, "phone")
        text = json.dumps(payload)
        live = VroomResolver(page, ResolutionStrategy.OFFLINE_ONLY)
        want = live.hints_for(snapshot.root, as_of_hours=DEFAULT_EVAL_HOUR)

        def unreachable(*args, **kwargs):
            raise AssertionError("a primed hour resolves afresh")

        monkeypatch.setattr(OfflineResolver, "stable_set", unreachable)
        fresh = VroomResolver(page, ResolutionStrategy.OFFLINE_ONLY)
        fresh.prime(payload)
        got = fresh.hints_for(snapshot.root, as_of_hours=DEFAULT_EVAL_HOUR)
        assert _rows(got) == _rows(want)
        assert set(got.urls()) <= set(payload["urls"])
        # The record is shared with the store: serving leaves it as it was.
        assert json.dumps(payload) == text

    def test_prime_rejects_foreign_pages(self, corpus):
        resolver = VroomResolver(corpus[0])
        alien = {
            "page": corpus[1].name,
            "device_class": "phone",
            "as_of_hours": 1.0,
            "urls": [],
            "exemplars": {},
        }
        with pytest.raises(ValueError):
            resolver.prime(alien)

    @pytest.mark.parametrize("atf_first", [False, True])
    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_primed_resolver_matches_the_live_resolver(
        self, corpus, device_class, atf_first
    ):
        """Every document of a client load gets, hint for hint, the
        bundle the live resolver builds from the same record."""
        hour = DEFAULT_EVAL_HOUR + 0.5
        stamp = LoadStamp(
            when_hours=hour + 1.25,
            device=CLASS_EMULATION_DEVICE[device_class],
            user="user3",
        )
        compared = 0
        for page in corpus:
            live = VroomResolver(page, atf_first=atf_first)
            primed = VroomResolver(page, atf_first=atf_first)
            primed.prime(OfflineResolver(page).stable_set(hour, device_class))
            for doc in page.materialize(stamp).documents():
                want = live.hints_for(
                    doc, as_of_hours=hour, device_class=device_class
                )
                got = primed.hints_for(
                    doc, as_of_hours=hour, device_class=device_class
                )
                assert _rows(got) == _rows(want)
                compared += 1
        assert compared > len(corpus)

    def test_bridge_serves_what_the_live_resolver_serves(self, page):
        hour = DEFAULT_EVAL_HOUR
        sample = BridgeSample(
            seq=0,
            when_hours=hour + 2.0,
            page_index=0,
            page=page.name,
            device_class="tablet",
            user="user1",
            status="stale_hit",
            computed_at_hours=hour,
            payload=OfflineResolver(page).stable_set(hour, "tablet"),
        )
        served = _served_resolver(page, sample)
        live = VroomResolver(page)
        stamp = LoadStamp(
            when_hours=sample.when_hours, device="nexus10", user="user1"
        )
        for doc in page.materialize(stamp).documents():
            assert _rows(
                served.hints_for(doc, as_of_hours=hour, device_class="tablet")
            ) == _rows(
                live.hints_for(doc, as_of_hours=hour, device_class="tablet")
            )


class TestEvaluateSample:
    def test_miss_scores_zero_recall_and_loads_without_hints(
        self, sampled_run
    ):
        pages, samples = sampled_run
        sample = _sample_with(samples, "miss")
        row = evaluate_sample(pages[sample.page_index], sample)
        assert row["staleness_hours"] is None
        assert row["served"]["returned"] == 0
        assert row["served"]["recall"] == 0.0
        assert row["served"]["precision"] == 1.0
        # A miss degrades to the no-hint fallback: identical loads.
        assert row["plt_served"] == row["plt_no_hints"]
        assert row["plt_oracle"] <= row["plt_no_hints"]

    def test_served_hits_score_against_predictable_set(self, sampled_run):
        pages, samples = sampled_run
        sample = _sample_with(samples, "stale_hit")
        row = evaluate_sample(pages[sample.page_index], sample)
        assert row["staleness_hours"] > 0.25
        assert row["served"]["returned"] > 0
        assert 0.0 < row["served"]["precision"] <= 1.0
        assert 0.0 < row["served"]["recall"] <= 1.0
        assert row["plt_served"] < row["plt_no_hints"]

    def test_without_loads_is_scores_only(self, sampled_run):
        pages, samples = sampled_run
        sample = samples[0]
        row = evaluate_sample(
            pages[sample.page_index], sample, with_loads=False
        )
        assert "plt_served" not in row
        assert "served" in row and "oracle" in row


class TestEvaluateSamples:
    def test_aggregate_shape_and_determinism(self, sampled_run):
        pages, samples = sampled_run
        first = evaluate_samples(pages, samples, max_samples=4)
        second = evaluate_samples(pages, samples, max_samples=4)
        assert first == second
        aggregate = first["aggregate"]
        assert aggregate["samples"] == 4
        assert len(first["rows"]) == 4
        assert 0.0 <= aggregate["precision_mean"] <= 1.0
        assert aggregate["plt_no_hints_mean"] > 0

    def test_max_samples_bounds_the_work(self, sampled_run):
        pages, samples = sampled_run
        out = evaluate_samples(
            pages, samples, max_samples=2, with_loads=False
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
