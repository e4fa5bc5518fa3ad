"""Unit tests for the combined Vroom resolver and its strawmen."""

import pytest

from repro.core.hints import DependencyHint
from repro.core.resolver import (
    ResolutionStrategy,
    VroomResolver,
    processing_order_key,
)
from repro.pages.dynamics import LoadStamp
from repro.pages.resources import Discovery, Priority


@pytest.fixture(scope="module")
def resolvers(request):
    return {}


def make_resolver(page, strategy):
    return VroomResolver(page, strategy=strategy)


class TestEnvelope:
    def test_envelope_excludes_iframe_descendants(self, page, snapshot):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        envelope = resolver.envelope_names(snapshot.root.name)
        for resource in snapshot.all_resources():
            if resource.in_iframe:
                assert resource.name not in envelope

    def test_envelope_includes_iframe_urls_themselves(self, page, snapshot):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        envelope = resolver.envelope_names(snapshot.root.name)
        for doc in snapshot.documents():
            if doc.parent is snapshot.root:
                assert doc.name in envelope

    def test_envelope_includes_script_and_css_derived(self, page, snapshot):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        envelope = resolver.envelope_names(snapshot.root.name)
        derived = [
            r
            for r in snapshot.all_resources()
            if not r.in_iframe
            and r.parent is not None
            and r.spec.discovery is not Discovery.STATIC_MARKUP
        ]
        for resource in derived:
            assert resource.name in envelope

    def test_envelope_cached(self, page, snapshot):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        first = resolver.envelope_names(snapshot.root.name)
        assert resolver.envelope_names(snapshot.root.name) is first


class TestVroomHints:
    def test_no_hints_under_none_strategy(self, page, snapshot, stamp):
        resolver = make_resolver(page, ResolutionStrategy.NONE)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        assert len(bundle) == 0

    def test_hints_cover_static_children_exactly(self, page, snapshot, stamp):
        """Online analysis guarantees every static child of the served
        HTML instance is hinted, nonce or not."""
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        hinted = set(bundle.urls())
        for child in snapshot.root.children:
            if child.spec.discovery is Discovery.STATIC_MARKUP:
                assert child.url in hinted

    def test_hints_never_cross_iframe_boundary(self, page, snapshot, stamp):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        in_iframe_urls = {
            r.url for r in snapshot.all_resources() if r.in_iframe
        }
        assert not (set(bundle.urls()) & in_iframe_urls)

    def test_user_state_script_children_excluded(self, page, snapshot, stamp):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        hinted = set(bundle.urls())
        for resource in snapshot.all_resources():
            parent = resource.parent
            if (
                parent is not None
                and parent.spec.user_state_script
                and resource.spec.discovery is Discovery.SCRIPT_COMPUTED
            ):
                assert resource.url not in hinted

    def test_stable_script_computed_resources_hinted(
        self, page, snapshot, stamp
    ):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        hinted = set(bundle.urls())
        stable_computed = [
            r
            for r in snapshot.all_resources()
            if not r.in_iframe
            and r.spec.discovery is Discovery.SCRIPT_COMPUTED
            and r.spec.lifetime_hours is None
            and not r.spec.unpredictable
            and not r.spec.personalized
            and not (r.parent and r.parent.spec.user_state_script)
        ]
        for resource in stable_computed:
            assert resource.url in hinted, resource.name

    def test_hint_priorities_match_resource_classes(
        self, page, snapshot, stamp
    ):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        by_url = snapshot.by_url()
        for hint in bundle:
            resource = by_url.get(hint.url)
            if resource is not None:
                assert hint.priority is resource.priority

    def test_preload_hints_ordered_for_processing(
        self, page, snapshot, stamp
    ):
        resolver = make_resolver(page, ResolutionStrategy.VROOM)
        bundle = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        preload = bundle.by_priority(Priority.PRELOAD)
        orders = [hint.order for hint in preload]
        assert orders == sorted(orders)


class TestStrawmen:
    def test_online_only_misses_script_computed(self, page, snapshot, stamp):
        resolver = make_resolver(page, ResolutionStrategy.ONLINE_ONLY)
        returned = resolver.dependency_urls(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        # Online-only DOES see script children (it executes a full load),
        # but its nonce URLs differ from the client's.
        client_nonce = {
            r.url
            for r in snapshot.all_resources()
            if r.spec.unpredictable and not r.in_iframe
        }
        assert not (returned & client_nonce)

    def test_offline_only_misses_fresh_rotations(self, corpus, stamp):
        """A resource that rotated within the offline window is missed."""
        for page in corpus:
            snapshot = page.materialize(stamp)
            resolver = make_resolver(page, ResolutionStrategy.OFFLINE_ONLY)
            returned = resolver.dependency_urls(
                snapshot.root, as_of_hours=stamp.when_hours
            )
            vroom = make_resolver(page, ResolutionStrategy.VROOM)
            vroom_returned = vroom.dependency_urls(
                snapshot.root, as_of_hours=stamp.when_hours
            )
            current = set(snapshot.urls())
            assert len(vroom_returned & current) >= len(returned & current)

    def test_prev_load_returns_more_than_stable(self, page, snapshot, stamp):
        prev = make_resolver(page, ResolutionStrategy.PREV_LOAD)
        offline = make_resolver(page, ResolutionStrategy.OFFLINE_ONLY)
        prev_urls = prev.dependency_urls(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        offline_urls = offline.dependency_urls(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        assert len(prev_urls) >= len(offline_urls)


def tree_order_key(resource):
    """The order key walked up a materialised tree's parent links."""
    key = 0.0
    node = resource
    while node is not None and node.parent is not None:
        discovery = node.spec.discovery.value
        if discovery == "static":
            key += node.spec.position
        elif discovery == "script":
            key += 1.0
        else:  # css
            key += 0.5
        node = node.parent
    return key


class TestProcessingOrder:
    def test_root_children_ordered_by_position(self, page, snapshot):
        children = [
            c
            for c in snapshot.root.children
            if c.spec.discovery is Discovery.STATIC_MARKUP
        ]
        keys = [processing_order_key(page, c.name) for c in children]
        positions = [c.spec.position for c in children]
        assert keys == positions

    def test_chained_scripts_after_parents(self, page, snapshot):
        for resource in snapshot.all_resources():
            if resource.parent is not None and resource.parent.parent is not None:
                assert processing_order_key(
                    page, resource.name
                ) > processing_order_key(page, resource.parent.name)

    @pytest.mark.parametrize("atf_first", [False, True])
    def test_hints_match_the_tree(self, corpus, stamp, atf_first):
        """Each hint's priority and order key, read off the spec chain,
        equal what the resource's place in a materialised tree gives,
        for every resource of several snapshots."""
        tablet = LoadStamp(when_hours=stamp.when_hours, device="nexus10")
        for page in corpus[:4]:
            resolver = VroomResolver(page, atf_first=atf_first)
            for load in (page.materialize(stamp), page.materialize(tablet)):
                assert any(r.in_iframe for r in load.all_resources())
                for resource in load.all_resources():
                    order = tree_order_key(resource)
                    assert processing_order_key(page, resource.name) == order
                    if (
                        atf_first
                        and resource.priority is Priority.UNIMPORTANT
                        and resource.spec.above_fold
                        and not resource.in_iframe
                    ):
                        order -= 1_000.0
                    hint = resolver._hint(
                        resource.url, resource.name, resource.size
                    )
                    assert hint == DependencyHint(
                        url=resource.url,
                        priority=resource.priority,
                        order=order,
                        size_estimate=resource.size,
                    )
