"""Tests for the named configuration runner."""

import pytest

from repro.baselines.configs import CONFIG_NAMES, run_config
from repro.browser.cache import BrowserCache


class TestRunConfig:
    def test_unknown_name_rejected(self, page, snapshot, store):
        with pytest.raises(ValueError):
            run_config("warp-drive", page, snapshot, store)

    def test_all_names_runnable(self, page, snapshot, store):
        for name in CONFIG_NAMES:
            metrics = run_config(name, page, snapshot, store)
            assert metrics.plt > 0, name

    def test_no_push_no_hints_equals_http2(self, page, snapshot, store):
        base = run_config("http2", page, snapshot, store)
        alias = run_config("no-push-no-hints", page, snapshot, store)
        assert alias.plt == pytest.approx(base.plt)

    def test_vroom_beats_http2_here(self, page, snapshot, store):
        vroom = run_config("vroom", page, snapshot, store)
        http2 = run_config("http2", page, snapshot, store)
        assert vroom.plt < http2.plt

    def test_http1_no_faster_than_http2(self, page, snapshot, store):
        h1 = run_config("http1", page, snapshot, store)
        h2 = run_config("http2", page, snapshot, store)
        assert h1.plt >= h2.plt * 0.9

    def test_partial_adoption_between_full_and_none(
        self, page, snapshot, store
    ):
        full = run_config("vroom", page, snapshot, store).plt
        partial = run_config("vroom-first-party", page, snapshot, store).plt
        none = run_config("http2", page, snapshot, store).plt
        assert full <= partial * 1.1
        assert partial <= none * 1.1

    def test_push_only_worse_than_vroom(self, page, snapshot, store):
        """Fig 18: hints are necessary; push alone loses multi-origin
        discovery."""
        vroom = run_config("vroom", page, snapshot, store).plt
        push_only = run_config(
            "push-high-pri-no-hints", page, snapshot, store
        ).plt
        assert vroom < push_only

    def test_wasted_bytes_only_with_hints(self, page, snapshot, store):
        http2 = run_config("http2", page, snapshot, store)
        vroom = run_config("vroom", page, snapshot, store)
        assert http2.wasted_bytes == 0.0
        assert vroom.wasted_bytes >= 0.0

    def test_device_parameter(self, page, snapshot, store):
        slow = run_config("cpu-bound", page, snapshot, store, device="nexus10")
        fast = run_config(
            "cpu-bound", page, snapshot, store, device="oneplus3"
        )
        assert fast.plt < slow.plt


def _warm_cache(snapshot):
    cache = BrowserCache()
    cache.seed_from_snapshot(
        snapshot.all_resources(), when_hours=snapshot.stamp.when_hours
    )
    return cache


@pytest.mark.parametrize("config", ["polaris", "hybrid"])
def test_client_options_reach_every_config(config, page, snapshot, store):
    """Polaris and the hybrid load with the client ``run_config`` builds:
    a slower device slows them, and a warm cache speeds them up."""
    base = run_config(config, page, snapshot, store).plt
    tablet = run_config(config, page, snapshot, store, device="nexus10").plt
    warm = run_config(
        config, page, snapshot, store, cache=_warm_cache(snapshot)
    ).plt
    assert tablet > base
    assert warm < base
