"""Workload generator: Zipf popularity, Poisson arrivals, determinism."""

import pickle
import random

import pytest

from repro.service.workload import (
    Lookup,
    Workload,
    WorkloadConfig,
    ZipfPopularity,
)


def config(**overrides):
    base = dict(pages=20, rate_per_hour=1000.0, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


def draw(workload_config, count=500):
    """The first ``count`` arrivals of a fresh stream."""
    workload = Workload(workload_config)
    return [workload.next() for _ in range(count)]


class TestZipfPopularity:
    def test_weights_sum_to_one_and_decay(self):
        popularity = ZipfPopularity(10, exponent=1.1)
        weights = [popularity.weight(rank) for rank in range(10)]
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_sample_covers_extremes(self):
        popularity = ZipfPopularity(10, exponent=1.1)
        assert popularity.sample(0.0) == 0
        assert popularity.sample(0.999999) == 9

    def test_zero_exponent_is_uniform(self):
        popularity = ZipfPopularity(4, exponent=0.0)
        assert popularity.weight(0) == pytest.approx(popularity.weight(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(5, exponent=-1.0)


class TestWorkloadDeterminism:
    def test_same_seed_same_stream_different_instances(self):
        assert draw(config()) == draw(config())

    def test_different_seed_different_stream(self):
        assert draw(config()) != draw(config(seed=4))

    def test_pickled_mid_stream_continues_identically(self):
        workload = Workload(config(flash_at_hours=0.1))
        for _ in range(137):
            workload.next()
        clone = pickle.loads(pickle.dumps(workload))
        rest = [workload.next() for _ in range(400)]
        assert [clone.next() for _ in range(400)] == rest
        assert rest[0].seq == 137


def legacy_draw_stream(
    pages, rate_per_hour, zipf_exponent, phone_fraction, user_pool, seed,
    count,
):
    """The streaming long-run harness's own per-arrival draw, as it stood
    before the harness moved onto the service loop: the oracle a
    flash-free :class:`Workload` must reproduce bit for bit."""
    popularity = ZipfPopularity(pages, zipf_exponent)
    rng = random.Random(seed)
    mean_gap = 1.0 / rate_per_hour
    last_when = 0.0
    out = []
    for seq in range(count):
        last_when += rng.expovariate(1.0 / mean_gap)
        page_index = popularity.sample(rng.random())
        device_class = "phone" if rng.random() < phone_fraction else "tablet"
        user = f"user{rng.randrange(user_pool)}"
        out.append(
            Lookup(
                seq=seq,
                when_hours=last_when,
                page_index=page_index,
                device_class=device_class,
                user=user,
            )
        )
    return out


class TestAgainstTheLegacyDraw:
    @pytest.mark.parametrize(
        "seed,rate", [(0, 1500.0), (1, 300.0), (7, 20_000.0), (42, 2.5)]
    )
    def test_flash_off_stream_matches_the_oracle(self, seed, rate):
        shape = dict(
            pages=12, rate_per_hour=rate, zipf_exponent=1.1,
            phone_fraction=0.85, user_pool=32, seed=seed,
        )
        assert draw(WorkloadConfig(**shape), 1000) == legacy_draw_stream(
            count=1000, **shape
        )


class TestWorkloadShape:
    def test_arrivals_are_increasing_and_rate_roughly_holds(self):
        lookups = draw(config(), 2000)
        times = [lookup.when_hours for lookup in lookups]
        assert times == sorted(times)
        # 2000 arrivals at 1000/hour ≈ 2 hours, within Poisson noise.
        assert 1.5 < times[-1] < 2.5

    def test_seq_is_dense(self):
        lookups = draw(config())
        assert [lookup.seq for lookup in lookups] == list(range(500))

    def test_popular_pages_dominate(self):
        lookups = draw(config(), 2000)
        top = sum(1 for lookup in lookups if lookup.page_index == 0)
        bottom = sum(1 for lookup in lookups if lookup.page_index == 19)
        assert top > 5 * max(bottom, 1)

    def test_phone_fraction_extremes(self):
        all_phone = draw(config(phone_fraction=1.0))
        assert {lookup.device_class for lookup in all_phone} == {"phone"}
        all_tablet = draw(config(phone_fraction=0.0))
        assert {lookup.device_class for lookup in all_tablet} == {"tablet"}

    def test_users_come_from_the_pool(self):
        lookups = draw(config(user_pool=4))
        users = {lookup.user for lookup in lookups}
        assert users <= {"user0", "user1", "user2", "user3"}
        assert len(users) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(config(rate_per_hour=0.0))
        with pytest.raises(ValueError):
            Workload(config(phone_fraction=1.5))


class TestFlashCrowd:
    def test_disabled_flash_leaves_the_stream_bit_identical(self):
        # The flash branch must not perturb the base generator: PR 4's
        # pinned smoke counters depend on this exact draw sequence.
        plain = draw(config())
        gated = draw(config(flash_at_hours=None))
        assert plain == gated

    def test_flash_concentrates_on_the_flash_page(self):
        flashed = draw(
            config(
                flash_at_hours=0.5,
                flash_duration_hours=0.3,
                flash_multiplier=8.0,
                flash_focus=1.0,
                flash_page_rank=3,
            ),
            2000,
        )
        inside = [
            lookup
            for lookup in flashed
            if 0.5 <= lookup.when_hours < 0.8
        ]
        assert inside
        # The window gate reads the previous arrival's clock, so the
        # first in-window arrival may still be a base-branch draw.
        focused = sum(1 for lookup in inside if lookup.page_index == 3)
        assert focused >= len(inside) - 1

    def test_flash_multiplies_the_arrival_rate(self):
        window = (0.5, 0.8)
        base = draw(config(), 2000)
        flashed = draw(
            config(
                flash_at_hours=window[0],
                flash_duration_hours=window[1] - window[0],
                flash_multiplier=8.0,
            ),
            2000,
        )

        def in_window(stream):
            return sum(
                1 for x in stream if window[0] <= x.when_hours < window[1]
            )

        assert in_window(flashed) > 3 * in_window(base)

    def test_flash_validation(self):
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=-1.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_duration_hours=0.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_multiplier=0.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_focus=1.5))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_page_rank=20))
