"""Tests for the fault-intensity resilience sweep."""

import pytest

from repro.experiments.parallel import load_matrix
from repro.experiments.resilience import (
    COUNTER_FIELDS,
    DEFAULT_RESILIENCE,
    resilience_sweep,
)
from repro.net.faults import ResiliencePolicy
from repro.pages.corpus import news_sports_corpus
from repro.replay.cache import SnapshotCache

COUNT = 2
CONFIGS = ("http2", "vroom")
RATES = (0.0, 0.3)


@pytest.fixture(scope="module")
def sweep():
    return resilience_sweep(
        count=COUNT, rates=RATES, configs=CONFIGS, workers=1,
        snapshots=SnapshotCache(),
    )


class TestZeroRateControl:
    """An empty fault plan must not perturb the simulation at all."""

    def test_bit_identical_to_unfaulted_sweep(self, sweep):
        plain = load_matrix(
            news_sports_corpus(COUNT), CONFIGS, workers=1,
            snapshots=SnapshotCache(),
        )
        for config in CONFIGS:
            assert sweep[0.0][config]["plt"] == list(plain.series(config))

    def test_zero_rate_counters_all_zero(self, sweep):
        for config in CONFIGS:
            row = sweep[0.0][config]
            assert all(row[field] == 0 for field in COUNTER_FIELDS)


class TestFaultedSweep:
    def test_every_load_completes(self, sweep):
        for rate in RATES:
            for config in CONFIGS:
                plts = sweep[rate][config]["plt"]
                assert len(plts) == COUNT
                assert all(plt > 0 for plt in plts)

    def test_faults_surface_in_vroom_counters(self, sweep):
        row = sweep[0.3]["vroom"]
        assert sum(row[field] for field in COUNTER_FIELDS) > 0

    def test_hint_free_baseline_untouched(self, sweep):
        """hint_fault_plan only targets hint prefetches; http2 issues none."""
        row = sweep[0.3]["http2"]
        assert all(row[field] == 0 for field in COUNTER_FIELDS)
        assert row["plt"] == sweep[0.0]["http2"]["plt"]


class TestDeterminism:
    def test_repeat_sweep_identical(self, sweep):
        again = resilience_sweep(
            count=COUNT, rates=RATES, configs=CONFIGS, workers=1,
            snapshots=SnapshotCache(),
        )
        assert again == sweep

    def test_workers_do_not_change_results(self, sweep):
        parallel = resilience_sweep(
            count=COUNT, rates=RATES, configs=CONFIGS, workers=2,
            snapshots=SnapshotCache(),
        )
        assert parallel == sweep


class TestDefaults:
    def test_default_policy_enables_recovery(self):
        assert DEFAULT_RESILIENCE.request_timeout > 0
        assert DEFAULT_RESILIENCE.max_retries >= 1

    def test_custom_policy_is_honoured(self):
        out = resilience_sweep(
            count=1, rates=(0.0,), configs=("vroom",), workers=1,
            resilience=ResiliencePolicy(
                request_timeout=9.0, max_retries=1, retry_backoff=0.5
            ),
            snapshots=SnapshotCache(),
        )
        assert list(out) == [0.0]
        assert len(out[0.0]["vroom"]["plt"]) == 1
