"""ReplayStore / RecordedResponse round-trip behaviour."""

import pickle

from repro.pages.resources import ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.store import RecordedResponse, ReplayStore


class TestRecordedResponse:
    def test_carries_resource_back_pointer(self, snapshot):
        store = record_snapshot(snapshot)
        for resource in snapshot.all_resources():
            recorded = store.lookup(resource.url)
            assert recorded is not None
            assert recorded.resource is resource
            assert recorded.url == resource.url
            assert recorded.size == resource.size

    def test_html_flag_matches_resource_type(self, snapshot):
        store = record_snapshot(snapshot)
        for resource in snapshot.all_resources():
            recorded = store.lookup(resource.url)
            assert recorded.is_html == (
                resource.spec.rtype is ResourceType.HTML
            )

    def test_defaults(self):
        response = RecordedResponse(
            url="x.com/a.js", domain="x.com", size=10, is_html=False
        )
        assert response.resource is None


class TestReplayStoreRoundTrip:
    def _store(self):
        store = ReplayStore(page="p")
        first = RecordedResponse(
            url="a.com/", domain="a.com", size=100, is_html=True
        )
        second = RecordedResponse(
            url="a.com/x.js", domain="a.com", size=50, is_html=False
        )
        third = RecordedResponse(
            url="b.com/y.css", domain="b.com", size=25, is_html=False
        )
        store.add(first, rtt=0.03)
        store.add(second, rtt=0.99)  # same domain: must not overwrite
        store.add(third, rtt=0.05)
        return store

    def test_add_lookup_round_trip(self):
        store = self._store()
        assert store.urls() == ["a.com/", "a.com/x.js", "b.com/y.css"]
        assert store.lookup("a.com/").is_html
        assert store.lookup("a.com/x.js").size == 50
        assert store.lookup("missing") is None
        assert store.total_bytes() == 175

    def test_per_domain_rtt_first_wins(self):
        store = self._store()
        assert store.domains() == ["a.com", "b.com"]
        # The second a.com exchange carried rtt=0.99; setdefault keeps
        # the first observation.
        assert store.domain_rtts["a.com"] == 0.03
        assert store.domain_rtts["b.com"] == 0.05

    def test_re_adding_a_url_replaces_the_response(self):
        store = self._store()
        replacement = RecordedResponse(
            url="a.com/x.js", domain="a.com", size=75, is_html=False
        )
        store.add(replacement, rtt=0.01)
        assert store.lookup("a.com/x.js").size == 75
        assert store.total_bytes() == 200
        assert store.domain_rtts["a.com"] == 0.03

    def test_pickle_round_trip_preserves_back_pointers(self, snapshot):
        store = record_snapshot(snapshot)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.page == store.page
        assert clone.urls() == store.urls()
        assert clone.domain_rtts == store.domain_rtts
        for url in store.urls():
            original = store.lookup(url)
            copied = clone.lookup(url)
            assert copied.size == original.size
            assert copied.is_html == original.is_html
            # The back-pointer survives and still matches its exchange.
            assert copied.resource is not None
            assert copied.resource.url == url
            assert copied.resource.body == original.resource.body
