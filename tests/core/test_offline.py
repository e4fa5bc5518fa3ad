"""Unit tests for offline dependency resolution (stable sets, devices)."""

import json

import pytest

from repro.core.offline import (
    OfflineResolver,
    SERVER_USER,
    device_equivalence_classes,
)
from repro.pages.dynamics import LoadStamp, resolve_url
from repro.pages.page import PageBlueprint
from repro.pages.resources import ResourceSpec, ResourceType


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


def reference_record(stable):
    """The record read back off a stable set's exemplar resources: the
    reference ``stable_record`` must reproduce without a tree."""
    exemplars = {}
    for url, exemplar in stable.exemplars.items():
        spec = exemplar.spec
        exemplars[url] = {
            "name": spec.name,
            "size": exemplar.size,
            "rtype": spec.rtype._value_,
            "process_order": exemplar.process_order,
        }
    return {
        "page": stable.page,
        "device_class": stable.device_class,
        "as_of_hours": stable.as_of_hours,
        "urls": sorted(stable.urls),
        "exemplars": exemplars,
    }


def assert_record_matches_tree(page, as_of_hours, device_class, **window):
    """``stable_record`` equals the tree's record as JSON text: key order
    matters, and ``dict ==`` ignores it."""
    record = OfflineResolver(page, **window).stable_record(
        as_of_hours, device_class
    )
    stable = OfflineResolver(page, **window).stable_set(
        as_of_hours, device_class
    )
    assert json.dumps(record) == json.dumps(reference_record(stable))
    return record


def _spec(name, rtype=ResourceType.IMAGE, parent="r", **fields):
    return ResourceSpec(name, rtype, "d.com", 700, parent=parent, **fields)


def shared_url_page():
    """A page where a personalised ``x`` and a flux-free spec named
    after ``x``'s server-side URL resolve to one URL, with another
    stable resource between them."""
    personal = _spec("x", position=0.0, personalized=True)
    url = resolve_url(personal, LoadStamp(when_hours=0.0, user=SERVER_USER))
    twin_name = url[len("d.com/"):-len(".jpg")]
    page = PageBlueprint(name="twins", root="r")
    page.add(ResourceSpec("r", ResourceType.HTML, "d.com", 4_000))
    page.add(personal)
    page.add(_spec("m", position=0.5, device_dependent=True))
    page.add(_spec("n", position=0.6, unpredictable=True))
    page.add(_spec(twin_name, position=1.0))
    return page, url, twin_name


class TestStableRecord:
    @pytest.mark.parametrize("window_loads", [1, 3, 5])
    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_matches_the_tree_on_corpus_pages(
        self, corpus, stamp, window_loads, device_class
    ):
        for page in corpus:
            assert_record_matches_tree(
                page,
                stamp.when_hours,
                device_class,
                window_loads=window_loads,
            )

    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_shared_url_keeps_first_place_and_last_fields(
        self, device_class
    ):
        page, url, twin_name = shared_url_page()
        record = assert_record_matches_tree(page, 50.0, device_class)
        # r, x, m, n, twin in processing order; n's nonce URL drops out.
        assert list(record["exemplars"])[1] == url
        assert record["exemplars"][url]["name"] == twin_name
        assert record["exemplars"][url]["process_order"] == 4
        assert len(record["urls"]) == 3

    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_strays_stay_out(self, device_class):
        page = PageBlueprint(name="strays", root="r")
        page.add(ResourceSpec("r", ResourceType.HTML, "d.com", 4_000))
        page.add(_spec("a", device_dependent=True))
        # Unvalidated: a second parentless document and its child.
        page.add(_spec("s", rtype=ResourceType.HTML, parent=None))
        page.add(_spec("t", parent="s", device_dependent=True))
        record = assert_record_matches_tree(page, 50.0, device_class)
        names = {entry["name"] for entry in record["exemplars"].values()}
        assert names == {"r", "a"}

    def test_builds_no_tree_and_fills_no_memo(
        self, page, stamp, count_materialize
    ):
        resolver = OfflineResolver(page)
        resolver.stable_record(stamp.when_hours, "phone")
        resolver.stable_record(stamp.when_hours, "tablet")
        assert count_materialize == []
        assert resolver._cache == {}

    def test_unknown_device_class(self, page):
        with pytest.raises(ValueError, match="unknown device class"):
            OfflineResolver(page).stable_record(100.0, "smartwatch")
