"""Unit tests for offline dependency resolution (stable sets, devices)."""

import pytest

from repro.core.offline import (
    OfflineResolver,
    SERVER_USER,
    device_equivalence_classes,
)
from repro.pages.page import PageBlueprint


class TestOfflineLoads:
    def test_window_size_and_spacing(self, page):
        resolver = OfflineResolver(page, period_hours=1.0, window_loads=3)
        loads = resolver.offline_loads(100.0, "phone")
        assert len(loads) == 3
        hours = [snap.stamp.when_hours for snap in loads]
        assert hours == [97.0, 98.0, 99.0]

    def test_loads_use_server_identity(self, page):
        resolver = OfflineResolver(page)
        loads = resolver.offline_loads(100.0, "phone")
        assert all(snap.stamp.user == SERVER_USER for snap in loads)

    def test_invalid_parameters(self, page):
        with pytest.raises(ValueError):
            OfflineResolver(page, period_hours=0.0)
        with pytest.raises(ValueError):
            OfflineResolver(page, window_loads=0)

    def test_unknown_device_class(self, page):
        resolver = OfflineResolver(page)
        with pytest.raises(ValueError):
            resolver.offline_loads(100.0, "smartwatch")


class TestStableSet:
    def test_stable_set_excludes_nonce_urls(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        nonce_specs = {
            spec.name
            for spec in page.specs.values()
            if spec.unpredictable
        }
        stable_names = {
            exemplar.name for exemplar in stable.exemplars.values()
        }
        assert not (stable_names & nonce_specs)

    def test_stable_set_keeps_long_lived_resources(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        long_lived = [
            spec
            for spec in page.specs.values()
            if spec.lifetime_hours is None
            and not spec.unpredictable
            and not spec.personalized
        ]
        stable_names = {
            exemplar.name for exemplar in stable.exemplars.values()
        }
        missing = [s.name for s in long_lived if s.name not in stable_names]
        assert not missing

    def test_stable_subset_of_latest_load(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        latest = resolver.offline_loads(stamp.when_hours, "phone")[-1]
        assert stable.urls <= set(latest.urls())

    def test_cached_by_time_and_class(self, page, stamp):
        resolver = OfflineResolver(page)
        first = resolver.stable_set(stamp.when_hours, "phone")
        second = resolver.stable_set(stamp.when_hours, "phone")
        assert first is second
        tablet = resolver.stable_set(stamp.when_hours, "tablet")
        assert tablet is not first

    def test_single_prior_load_is_superset(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        single = resolver.single_prior_load(stamp.when_hours, "phone")
        assert stable.urls <= single.urls

    def test_contains_and_len(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        assert len(stable) == len(stable.urls)
        any_url = next(iter(stable.urls))
        assert any_url in stable


class TestDeviceClasses:
    def test_phones_bin_together(self, page, stamp):
        classes = device_equivalence_classes(
            page, ["nexus6", "oneplus3", "nexus10"], stamp.when_hours
        )
        phone_class = next(
            members for members in classes.values() if "nexus6" in members
        )
        assert "oneplus3" in phone_class
        assert "nexus10" not in phone_class

    def test_tablet_gets_own_class_on_device_heavy_page(self, corpus, stamp):
        device_heavy = max(
            corpus,
            key=lambda page: sum(
                1 for spec in page.specs.values() if spec.device_dependent
            ),
        )
        classes = device_equivalence_classes(
            device_heavy, ["nexus6", "nexus10"], stamp.when_hours
        )
        assert len(classes) == 2


def reference_stable_set(resolver, as_of_hours, device_class):
    """(URLs, exemplars) from every load of the window built in full."""
    loads = resolver.offline_loads(as_of_hours, device_class)
    urls = set.intersection(*(set(load.urls()) for load in loads))
    exemplars = {
        resource.url: resource
        for resource in loads[-1].all_resources()
        if resource.url in urls
    }
    return urls, exemplars


def _fields(resource):
    return (
        resource.spec,
        resource.url,
        resource.size,
        resource.process_order,
        resource.is_iframe_doc,
        resource.in_iframe,
        resource.parent and resource.parent.name,
        [child.name for child in resource.children],
        resource.body,
    )


@pytest.fixture
def count_materialize(monkeypatch):
    """Counts ``PageBlueprint.materialize`` calls from here on."""
    calls = []
    materialize = PageBlueprint.materialize

    def counting(page, stamp):
        calls.append(stamp)
        return materialize(page, stamp)

    monkeypatch.setattr(PageBlueprint, "materialize", counting)
    return calls


class TestAgainstFullLoads:
    @pytest.mark.parametrize("window_loads", [1, 3, 5])
    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_stable_set_matches_reference(
        self, corpus, stamp, window_loads, device_class
    ):
        for page in corpus[:3]:
            resolver = OfflineResolver(page, window_loads=window_loads)
            stable = resolver.stable_set(stamp.when_hours, device_class)
            urls, exemplars = reference_stable_set(
                resolver, stamp.when_hours, device_class
            )
            assert stable.urls == urls
            assert list(stable.exemplars) == list(exemplars)
            for url, want in exemplars.items():
                assert _fields(stable.exemplars[url]) == _fields(want)

    def test_window_of_one_is_the_newest_load(self, page, stamp):
        resolver = OfflineResolver(page, window_loads=1)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        (only,) = resolver.offline_loads(stamp.when_hours, "phone")
        assert stable.urls == set(only.urls())

    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_single_prior_load_is_the_newest_load(
        self, page, stamp, device_class
    ):
        resolver = OfflineResolver(page, window_loads=3)
        single = resolver.single_prior_load(stamp.when_hours, device_class)
        newest = resolver.offline_loads(stamp.when_hours, device_class)[-1]
        assert single.urls == set(newest.urls())
        assert list(single.exemplars) == list(newest.by_url())
        for url, want in newest.by_url().items():
            assert _fields(single.exemplars[url]) == _fields(want)

    def test_one_tree_per_resolution(self, page, stamp, count_materialize):
        resolver = OfflineResolver(page, window_loads=3)
        resolver.stable_set(stamp.when_hours, "phone")
        assert len(count_materialize) == 1
        assert count_materialize[0].when_hours == stamp.when_hours - 1.0
        resolver.stable_set(stamp.when_hours, "phone")
        assert len(count_materialize) == 1
        resolver.stable_set(stamp.when_hours, "tablet")
        assert len(count_materialize) == 2
        resolver.single_prior_load(stamp.when_hours, "phone")
        assert len(count_materialize) == 3
        resolver.single_prior_load(stamp.when_hours, "phone")
        assert len(count_materialize) == 4
