"""Tests for stable-set persistence (the server's offline database)."""

import json

import pytest

from repro.core.offline import OfflineResolver, stable_set_from_dict


class TestStableSetPersistence:
    def test_round_trip(self, page, stamp):
        resolver = OfflineResolver(page)
        original = resolver.stable_set(stamp.when_hours, "phone")
        data = resolver.stable_record(stamp.when_hours, "phone")
        restored = stable_set_from_dict(data, page)
        assert restored.urls == original.urls
        assert set(restored.exemplars) == set(original.exemplars)
        for url in original.exemplars:
            assert (
                restored.exemplars[url].name
                == original.exemplars[url].name
            )
            assert (
                restored.exemplars[url].process_order
                == original.exemplars[url].process_order
            )

    def test_json_serialisable(self, page, stamp):
        resolver = OfflineResolver(page)
        text = json.dumps(resolver.stable_record(stamp.when_hours, "phone"))
        assert json.loads(text)["page"] == page.name

    def test_unknown_exemplar_rejected(self, page, stamp):
        resolver = OfflineResolver(page)
        data = resolver.stable_record(stamp.when_hours, "phone")
        any_url = next(iter(data["exemplars"]))
        data["exemplars"][any_url]["name"] = "ghost_resource"
        with pytest.raises(ValueError, match="unknown to page"):
            stable_set_from_dict(data, page)

    def test_restored_set_drives_resolver(self, page, snapshot, stamp):
        """A resolver fed a persisted stable set produces usable hints."""
        from repro.core.resolver import VroomResolver

        resolver = VroomResolver(page)
        direct = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        data = resolver.offline.stable_record(stamp.when_hours, "phone")
        restored = stable_set_from_dict(data, page)
        # Patch the cache so the resolver reuses the persisted set.
        key = (round(stamp.when_hours, 6), "phone")
        fresh = VroomResolver(page)
        fresh.offline._cache[key] = restored
        rehydrated = fresh.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        assert set(rehydrated.urls()) == set(direct.urls())
