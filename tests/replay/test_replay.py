"""Tests for the record-and-replay harness."""

import pytest

from repro.calibration import SERVER_HTML_THINK_TIME, SERVER_THINK_TIME
from repro.pages import markup
from repro.replay.recorder import domain_rtt, record_snapshot
from repro.replay.replayer import build_servers


class TestRecorder:
    def test_records_every_resource(self, snapshot):
        store = record_snapshot(snapshot)
        assert set(store.urls()) == set(snapshot.urls())

    def test_records_bodies_for_documents(self, snapshot):
        store = record_snapshot(snapshot)
        for doc in snapshot.documents():
            recorded = store.lookup(doc.url)
            assert recorded is doc
            assert recorded.body == markup.render_body(doc)

    def test_records_no_body(self, small_page, stamp, monkeypatch):
        snapshot = small_page.materialize(stamp)
        rendered = []
        render = markup.render_body

        def counting(resource):
            rendered.append(resource.name)
            return render(resource)

        monkeypatch.setattr(markup, "render_body", counting)
        store = record_snapshot(snapshot)
        assert set(store.urls()) == set(snapshot.urls())
        assert rendered == []

    def test_total_bytes_match(self, snapshot):
        store = record_snapshot(snapshot)
        assert store.total_bytes() == snapshot.total_bytes()

    def test_domain_rtts_deterministic_and_bounded(self, snapshot):
        store = record_snapshot(snapshot)
        for domain in store.domains():
            rtt = store.domain_rtts[domain]
            assert rtt == domain_rtt(domain)
            assert 0.0 < rtt < 0.5

    def test_distinct_domains_distinct_rtts(self):
        assert domain_rtt("a.com") != domain_rtt("b.com")


class TestReplayer:
    def test_one_server_per_domain(self, snapshot, store):
        servers = build_servers(store)
        assert set(servers) == set(store.domains())

    def test_server_serves_recorded_sizes(self, snapshot, store):
        servers = build_servers(store)
        resource = snapshot.root
        response = servers[resource.domain].respond(resource.url)
        assert response.size == resource.size

    def test_server_rejects_foreign_urls(self, snapshot, store):
        servers = build_servers(store)
        domains = snapshot.domains()
        if len(domains) < 2:
            pytest.skip("need two domains")
        other = next(
            r for r in snapshot.all_resources() if r.domain == domains[1]
        )
        assert servers[domains[0]].respond(other.url) is None

    def test_decorator_applied_to_html_only(self, snapshot, store):
        def decorate(resource, response, is_push):
            if resource.is_document:
                response.pushes = ["marker"]
            return response

        servers = build_servers(store, decorator=decorate)
        root = snapshot.root
        assert servers[root.domain].respond(root.url).pushes == ["marker"]
        media = next(
            r for r in snapshot.all_resources() if not r.processable
        )
        assert servers[media.domain].respond(media.url).pushes == []

    def test_extra_content_served(self, store):
        extra = {"extra.com/stale.js": 777, "extra.com/old.html": 900}
        servers = build_servers(store, extra_content=extra)
        assert "extra.com" in servers
        response = servers["extra.com"].respond("extra.com/stale.js")
        assert response.size == 777
        assert response.think_time == SERVER_THINK_TIME
        assert response.cacheable
        assert response.meta is None
        page = servers["extra.com"].respond("extra.com/old.html")
        assert page.think_time == SERVER_HTML_THINK_TIME
        # An extra URL is served only by its own domain's server.
        assert servers[store.domains()[0]].respond("extra.com/stale.js") is None

    def test_uncacheable_resources_flagged(self, snapshot, store):
        servers = build_servers(store)
        uncacheable = [
            r for r in snapshot.all_resources() if not r.spec.cacheable
        ]
        if not uncacheable:
            pytest.skip("corpus page has no uncacheable resources")
        resource = uncacheable[0]
        response = servers[resource.domain].respond(resource.url)
        assert not response.cacheable

    def test_per_resource_think_time_honoured(self, snapshot, store):
        slow = [
            r
            for r in snapshot.all_resources()
            if r.spec.server_think_time is not None
        ]
        if not slow:
            pytest.skip("no per-resource think times on this page")
        servers = build_servers(store)
        resource = slow[0]
        response = servers[resource.domain].respond(resource.url)
        assert response.think_time == resource.spec.server_think_time
