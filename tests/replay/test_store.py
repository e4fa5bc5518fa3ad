"""ReplayStore round-trip behaviour: the store holds the recorded resources."""

import pickle

from repro.pages.resources import Resource, ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.store import ReplayStore


def _resource(url: str, rtype: ResourceType, size: int) -> Resource:
    domain = url.partition("/")[0]
    spec = ResourceSpec(name=url, rtype=rtype, domain=domain, size=size)
    return Resource(spec=spec, url=url, size=size)


class TestRecordedResource:
    def test_lookup_returns_the_snapshot_resource(self, snapshot):
        store = record_snapshot(snapshot)
        for resource in snapshot.all_resources():
            assert store.lookup(resource.url) is resource


class TestReplayStoreRoundTrip:
    def _store(self):
        store = ReplayStore(page="p")
        first = _resource("a.com/", ResourceType.HTML, 100)
        second = _resource("a.com/x.js", ResourceType.JS, 50)
        third = _resource("b.com/y.css", ResourceType.CSS, 25)
        store.add(first, rtt=0.03)
        store.add(second, rtt=0.99)  # same domain: must not overwrite
        store.add(third, rtt=0.05)
        return store

    def test_add_lookup_round_trip(self):
        store = self._store()
        assert store.urls() == ["a.com/", "a.com/x.js", "b.com/y.css"]
        assert store.lookup("a.com/").is_document
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
        replacement = _resource("a.com/x.js", ResourceType.JS, 75)
        store.add(replacement, rtt=0.01)
        assert store.lookup("a.com/x.js") is replacement
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
            assert copied.url == url
            assert copied.size == original.size
            assert copied.is_document == original.is_document
            assert copied.body == original.body
        # Parent and child pointers survive between the stored resources.
        root = clone.lookup(snapshot.root.url)
        for child in root.children:
            assert child.parent is root
            assert clone.lookup(child.url) is child
