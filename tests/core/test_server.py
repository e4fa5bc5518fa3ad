"""Tests for Vroom-compliant server construction."""

import pytest

from repro.baselines.configs import run_config
from repro.calibration import (
    SERVER_HTML_THINK_TIME,
    SERVER_THINK_TIME,
    VROOM_ONLINE_PARSE_OVERHEAD,
)
from repro.core.push_policy import PushPolicy
from repro.core.resolver import ResolutionStrategy
from repro.core.server import (
    first_party_domains,
    hint_bundles,
    hinted_extra_content,
    vroom_servers,
)
from repro.core.resolver import VroomResolver
from repro.replay.replayer import build_servers


class TestVroomServers:
    def test_html_responses_carry_hints(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store)
        root = snapshot.root
        response = servers[root.domain].respond(root.url)
        assert response.hints

    def test_media_responses_have_no_hints(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store)
        media = next(
            r for r in snapshot.all_resources() if not r.processable
        )
        response = servers[media.domain].respond(media.url)
        assert response.hints == []

    def test_pushes_are_same_domain_high_priority(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store)
        root = snapshot.root
        response = servers[root.domain].respond(root.url)
        for url in response.pushes:
            assert url.startswith(root.domain + "/")

    def test_online_parse_overhead_added_to_html(self, page, snapshot, store):
        vroom = vroom_servers(page, snapshot, store)
        plain = build_servers(store)
        root = snapshot.root
        vroom_think = vroom[root.domain].respond(root.url).think_time
        plain_think = plain[root.domain].respond(root.url).think_time
        assert vroom_think == pytest.approx(
            plain_think + VROOM_ONLINE_PARSE_OVERHEAD
        )

    def test_offline_only_skips_online_overhead(self, page, snapshot, store):
        offline = vroom_servers(
            page, snapshot, store, strategy=ResolutionStrategy.OFFLINE_ONLY
        )
        plain = build_servers(store)
        root = snapshot.root
        assert offline[root.domain].respond(root.url).think_time == (
            plain[root.domain].respond(root.url).think_time
        )

    def test_hints_disabled(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store, send_hints=False)
        root = snapshot.root
        response = servers[root.domain].respond(root.url)
        assert response.hints == []
        assert response.pushes  # push can still happen

    def test_push_policy_none(self, page, snapshot, store):
        servers = vroom_servers(
            page, snapshot, store, push_policy=PushPolicy.NONE
        )
        root = snapshot.root
        assert servers[root.domain].respond(root.url).pushes == []

    def test_partial_adoption_restricts_to_first_party(
        self, page, snapshot, store
    ):
        adopting = first_party_domains(page)
        servers = vroom_servers(
            page, snapshot, store, adopting_domains=adopting
        )
        for doc in snapshot.documents():
            response = servers[doc.domain].respond(doc.url)
            if doc.domain in adopting:
                assert response.hints
            else:
                assert response.hints == []

    def test_push_responses_not_decorated(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store)
        root = snapshot.root
        pushed = servers[root.domain].respond(root.url, is_push=True)
        assert pushed.hints == []
        assert pushed.pushes == []


class TestExtraContent:
    def test_extra_content_covers_all_foreign_hints(
        self, page, snapshot, store
    ):
        bundles = hint_bundles(
            snapshot,
            VroomResolver(page),
            as_of_hours=snapshot.stamp.when_hours,
        )
        extra = hinted_extra_content(snapshot, bundles)
        known = set(snapshot.urls())
        assert not (set(extra) & known)
        for url, size in extra.items():
            assert size >= 600

    def test_extra_urls_get_plain_responses(self, page, snapshot, store):
        # The online-only strawman hints nonce URLs this load lacks, some
        # of them documents and some below the size floor.
        strategy = ResolutionStrategy.ONLINE_ONLY
        bundles = hint_bundles(
            snapshot,
            VroomResolver(page, strategy=strategy),
            as_of_hours=snapshot.stamp.when_hours,
        )
        extra = hinted_extra_content(snapshot, bundles)
        assert any(url.endswith(".html") for url in extra)
        assert 600 in extra.values()
        servers = vroom_servers(page, snapshot, store, strategy=strategy)
        for url, size in extra.items():
            response = servers[url.partition("/")[0]].respond(url)
            assert response.size == size >= 600
            assert response.think_time == (
                SERVER_HTML_THINK_TIME
                if url.endswith(".html")
                else SERVER_THINK_TIME
            )
            assert response.cacheable
            assert response.meta is None
            # No bundle is keyed by a URL outside the snapshot, so the
            # Vroom decorator would have left these responses as they are.
            assert response.hints == [] and response.pushes == []

    def test_servers_can_serve_extraneous_hints(self, page, snapshot, store):
        servers = vroom_servers(page, snapshot, store)
        root = snapshot.root
        response = servers[root.domain].respond(root.url)
        known = set(snapshot.urls())
        for hint in response.hints:
            domain = hint.url.partition("/")[0]
            if domain in servers:
                assert servers[domain].respond(hint.url) is not None


class TestWorkPerLoad:
    @pytest.mark.parametrize(
        "strategy",
        [ResolutionStrategy.VROOM, ResolutionStrategy.ONLINE_ONLY],
    )
    def test_one_bundle_per_document(
        self, page, snapshot, store, strategy, monkeypatch
    ):
        calls = []
        hints_for = VroomResolver.hints_for

        def counting(self, doc, **kwargs):
            calls.append(doc.url)
            return hints_for(self, doc, **kwargs)

        monkeypatch.setattr(VroomResolver, "hints_for", counting)
        vroom_servers(page, snapshot, store, strategy=strategy)
        assert calls == [doc.url for doc in snapshot.documents()]

    @pytest.mark.parametrize(
        "config",
        ["vroom", "offline-only", "deps-prev-load", "push-all-fetch-asap"],
    )
    def test_offline_hints_build_no_tree(
        self, page, snapshot, store, config, count_materialize
    ):
        run_config(config, page, snapshot, store)
        assert count_materialize == []

    def test_online_only_builds_one_tree_per_document(
        self, page, snapshot, store, count_materialize
    ):
        run_config("online-only", page, snapshot, store)
        assert len(count_materialize) == len(snapshot.documents())


def test_first_party_domains(page):
    assert first_party_domains(page) == {f"{page.name}.com"}
