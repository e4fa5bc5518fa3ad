"""Tests for stable-set persistence (the server's offline database)."""

import json

import pytest

from repro.core.offline import OfflineResolver
from repro.core.resolver import VroomResolver


def _rows(bundle):
    return [
        (hint.url, hint.priority, hint.order, hint.size_estimate)
        for hint in bundle
    ]


class TestStableSetPersistence:
    def test_round_trip(self, page, stamp):
        resolver = OfflineResolver(page)
        original = resolver.stable_set(stamp.when_hours, "phone")
        restored = json.loads(json.dumps(original))
        assert json.dumps(restored) == json.dumps(original)
        assert restored["urls"] == original["urls"]
        assert list(restored["exemplars"]) == list(original["exemplars"])

    def test_json_serialisable(self, page, stamp):
        resolver = OfflineResolver(page)
        text = json.dumps(resolver.stable_set(stamp.when_hours, "phone"))
        assert json.loads(text)["page"] == page.name

    def test_unknown_exemplar_rejected(self, page, stamp):
        resolver = OfflineResolver(page)
        data = resolver.stable_set(stamp.when_hours, "phone")
        any_url = next(iter(data["exemplars"]))
        data["exemplars"][any_url]["name"] = "ghost_resource"
        with pytest.raises(ValueError, match="unknown to page"):
            VroomResolver(page).prime(data)

    def test_restored_set_drives_resolver(self, page, snapshot, stamp):
        """A resolver fed a persisted stable set serves the hints the
        live resolver serves."""
        resolver = VroomResolver(page)
        direct = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        data = resolver.offline.stable_set(stamp.when_hours, "phone")
        fresh = VroomResolver(page)
        fresh.prime(json.loads(json.dumps(data)))
        rehydrated = fresh.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        assert _rows(rehydrated) == _rows(direct)
