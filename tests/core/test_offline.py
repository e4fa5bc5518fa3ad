"""Unit tests for offline dependency resolution (stable sets, devices)."""

import json

import pytest

from repro.core.offline import (
    OfflineResolver,
    SERVER_USER,
    device_equivalence_classes,
)
from repro.core.resolver import ResolutionStrategy, VroomResolver
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


def _names(record):
    return {exemplar["name"] for exemplar in record["exemplars"].values()}


class TestStableSet:
    def test_stable_set_excludes_nonce_urls(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        nonce_specs = {
            spec.name
            for spec in page.specs.values()
            if spec.unpredictable
        }
        assert not (_names(stable) & nonce_specs)

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
        stable_names = _names(stable)
        missing = [s.name for s in long_lived if s.name not in stable_names]
        assert not missing

    def test_stable_subset_of_latest_load(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        latest = resolver.offline_loads(stamp.when_hours, "phone")[-1]
        assert set(stable["urls"]) <= set(latest.urls())

    def test_cached_by_time_and_class(self, page, stamp, monkeypatch):
        """The offline resolver recomputes every call; the Vroom
        resolver keeps one record per (hour, class) for all documents."""
        offline = OfflineResolver(page)
        first = offline.stable_set(stamp.when_hours, "phone")
        again = offline.stable_set(stamp.when_hours, "phone")
        assert again == first and again is not first
        calls = []
        stable_set = OfflineResolver.stable_set

        def counting(self, as_of_hours, device_class="phone"):
            calls.append((as_of_hours, device_class))
            return stable_set(self, as_of_hours, device_class)

        monkeypatch.setattr(OfflineResolver, "stable_set", counting)
        resolver = VroomResolver(page, ResolutionStrategy.OFFLINE_ONLY)
        documents = page.materialize(stamp).documents()
        assert len(documents) > 1
        for device_class in ("phone", "phone", "tablet"):
            for doc in documents:
                resolver.hints_for(
                    doc,
                    as_of_hours=stamp.when_hours,
                    device_class=device_class,
                )
        assert calls == [
            (stamp.when_hours, "phone"),
            (stamp.when_hours, "tablet"),
        ]

    def test_single_prior_load_is_superset(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        single = resolver.single_prior_load(stamp.when_hours, "phone")
        assert set(stable["urls"]) <= set(single["urls"])

    def test_contains_and_len(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        assert stable["urls"] == sorted(set(stable["urls"]))
        assert len(stable["exemplars"]) == len(stable["urls"])
        assert all(url in stable["exemplars"] for url in stable["urls"])


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


def reference_record(resolver, as_of_hours, device_class, kept=None):
    """The record read off every load of the window built in full: the
    URLs all loads saw (or ``kept``), with each one's fields from the
    newest tree's resources in walk order, so a URL two resources share
    keeps the first one's place and the last one's fields."""
    loads = resolver.offline_loads(as_of_hours, device_class)
    if kept is None:
        kept = set.intersection(*(set(load.urls()) for load in loads))
    exemplars = {}
    for resource in loads[-1].all_resources():
        if resource.url in kept:
            spec = resource.spec
            exemplars[resource.url] = {
                "name": spec.name,
                "size": resource.size,
                "rtype": spec.rtype.value,
                "process_order": resource.process_order,
            }
    return {
        "page": resolver.page.name,
        "device_class": device_class,
        "as_of_hours": as_of_hours,
        "urls": sorted(kept),
        "exemplars": exemplars,
    }


def assert_record_matches_tree(page, as_of_hours, device_class, **window):
    """``stable_set`` equals the tree oracle's record as JSON text: key
    order matters, and ``dict ==`` ignores it."""
    resolver = OfflineResolver(page, **window)
    record = resolver.stable_set(as_of_hours, device_class)
    want = reference_record(resolver, as_of_hours, device_class)
    assert json.dumps(record) == json.dumps(want)
    return record


class TestAgainstFullLoads:
    @pytest.mark.parametrize("window_loads", [1, 3, 5])
    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_stable_set_matches_reference(
        self, corpus, stamp, window_loads, device_class
    ):
        for page in corpus[:3]:
            assert_record_matches_tree(
                page,
                stamp.when_hours,
                device_class,
                window_loads=window_loads,
            )

    def test_window_of_one_is_the_newest_load(self, page, stamp):
        resolver = OfflineResolver(page, window_loads=1)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        (only,) = resolver.offline_loads(stamp.when_hours, "phone")
        assert set(stable["urls"]) == set(only.urls())

    @pytest.mark.parametrize("device_class", ["phone", "tablet"])
    def test_single_prior_load_is_the_newest_load(
        self, page, stamp, device_class
    ):
        resolver = OfflineResolver(page, window_loads=3)
        single = resolver.single_prior_load(stamp.when_hours, device_class)
        newest = resolver.offline_loads(stamp.when_hours, device_class)[-1]
        want = reference_record(
            resolver, stamp.when_hours, device_class, set(newest.urls())
        )
        assert json.dumps(single) == json.dumps(want)
        assert list(single["exemplars"]) == list(newest.by_url())

    def test_one_tree_per_resolution(self, page, stamp, count_materialize):
        """A resolution used to build the newest load's tree and no
        other; it now builds none, and repeated calls recompute equal
        records.  Only the oracle builds trees: one per window load,
        the newest at the hour before ``as_of``."""
        resolver = OfflineResolver(page, window_loads=3)
        first = resolver.stable_set(stamp.when_hours, "phone")
        assert resolver.stable_set(stamp.when_hours, "phone") == first
        resolver.stable_set(stamp.when_hours, "tablet")
        single = resolver.single_prior_load(stamp.when_hours, "phone")
        again = resolver.single_prior_load(stamp.when_hours, "phone")
        assert again == single and again is not single
        assert count_materialize == []
        resolver.offline_loads(stamp.when_hours, "phone")
        assert len(count_materialize) == 3
        assert count_materialize[-1].when_hours == stamp.when_hours - 1.0


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
        assert _names(record) == {"r", "a"}

    def test_builds_no_tree_and_fills_no_memo(
        self, page, stamp, count_materialize
    ):
        resolver = OfflineResolver(page)
        for device_class in ("phone", "tablet"):
            resolver.stable_set(stamp.when_hours, device_class)
            resolver.single_prior_load(stamp.when_hours, device_class)
        assert count_materialize == []
        # An offline resolver holds only its page, period and window.
        assert set(vars(resolver)) == {
            "page",
            "period_hours",
            "window_loads",
        }

    def test_unknown_device_class(self, page):
        with pytest.raises(ValueError, match="unknown device class"):
            OfflineResolver(page).stable_set(100.0, "smartwatch")
