"""``PageBlueprint.materialize`` against the eager three-walk reference.

The reference below is the original materialisation: build every
resource, link children, mark frames by walking up each resource's
ancestors, assign processing order in a second walk, and render every
processable body eagerly.  The production pass must agree with it on
every field, on walk order and on ``resources`` key order.
"""

import pickle

import pytest

from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.offline import OfflineResolver
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.pages import markup
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp, resolve_size, resolve_url
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import Resource, ResourceSpec, ResourceType


def _mark_frames(root):
    for resource in root.descendants():
        if resource.is_document:
            resource.is_iframe_doc = True
        parent = resource.parent
        while parent is not None:
            if parent.is_document and parent.parent is not None:
                resource.in_iframe = True
                break
            parent = parent.parent


def _assign_process_order(root):
    order = 0
    stack = [root]
    while stack:
        node = stack.pop()
        node.process_order = order
        order += 1
        stack.extend(reversed(node.children))


def reference_materialize(page, stamp):
    """The eager materialisation the one-pass version replaced."""
    resources = {}
    for spec in page.specs.values():
        resources[spec.name] = Resource(
            spec=spec,
            url=resolve_url(spec, stamp),
            size=resolve_size(spec, stamp),
        )
    for name, resource in resources.items():
        for child_spec in page.children_of(name):
            child = resources[child_spec.name]
            child.parent = resource
            resource.children.append(child)
    root = resources[page.root]
    _mark_frames(root)
    _assign_process_order(root)
    for resource in resources.values():
        if resource.processable:
            resource.body = markup.render_body(resource)
    return PageSnapshot(
        page=page.name, stamp=stamp, root=root, resources=resources
    )


def _names(resources):
    return [resource.name for resource in resources]


def assert_same_snapshot(actual, expected):
    """Field-by-field equality of two snapshots of one blueprint."""
    assert actual.page == expected.page
    assert actual.stamp == expected.stamp
    assert list(actual.resources) == list(expected.resources)
    assert _names(actual.all_resources()) == _names(expected.all_resources())
    assert actual.urls() == expected.urls()
    for name, want in expected.resources.items():
        got = actual.resources[name]
        assert got.spec is want.spec
        assert (got.url, got.size) == (want.url, want.size)
        assert got.process_order == want.process_order
        assert got.in_iframe == want.in_iframe
        assert got.is_iframe_doc == want.is_iframe_doc
        assert _names(got.children) == _names(want.children)
        assert (got.parent and got.parent.name) == (
            want.parent and want.parent.name
        )
        assert got.body == want.body


def spec(name, rtype, parent=None, **kw):
    return ResourceSpec(
        name=name, rtype=rtype, domain="a.com", size=900, parent=parent, **kw
    )


def nested_frames_page():
    page = PageBlueprint(name="frames", root="root")
    page.add(spec("root", ResourceType.HTML))
    page.add(spec("js", ResourceType.JS, "root", position=0.2))
    page.add(spec("frame", ResourceType.HTML, "root", position=0.6))
    page.add(spec("inner", ResourceType.HTML, "frame", position=0.3))
    page.add(spec("deep_img", ResourceType.IMAGE, "inner"))
    page.add(spec("frame_css", ResourceType.CSS, "frame", position=0.1))
    page.add(spec("late_img", ResourceType.IMAGE, "root", position=0.9))
    return page


class TestAgainstReference:
    def test_corpus_pages_under_server_and_client_stamps(self):
        stamps = [
            LoadStamp(when_hours=DEFAULT_EVAL_HOUR),
            LoadStamp(when_hours=DEFAULT_EVAL_HOUR - 2.0, nonce=7),
            LoadStamp(
                when_hours=DEFAULT_EVAL_HOUR, device="nexus10", user="u3"
            ),
            LoadStamp(
                when_hours=DEFAULT_EVAL_HOUR,
                device="nexus6",
                user="__vroom_server__",
                nonce=41,
            ),
        ]
        for page in news_sports_corpus(count=4):
            for stamp in stamps:
                assert_same_snapshot(
                    page.materialize(stamp), reference_materialize(page, stamp)
                )

    def test_nested_iframes(self):
        page = nested_frames_page()
        snapshot = page.materialize(LoadStamp(when_hours=5.0))
        assert_same_snapshot(
            snapshot, reference_materialize(page, LoadStamp(when_hours=5.0))
        )
        flags = {
            resource.name: (resource.is_iframe_doc, resource.in_iframe)
            for resource in snapshot.all_resources()
        }
        assert flags["frame"] == (True, False)
        assert flags["inner"] == (True, True)
        assert flags["deep_img"] == (False, True)
        assert flags["frame_css"] == (False, True)
        assert flags["js"] == (False, False)

    def test_specs_the_root_cannot_reach(self):
        page = nested_frames_page()
        # Unvalidated blueprints may carry strays: a second tree and a
        # parent cycle.  They are materialised and linked, outside the walk.
        page.specs["island"] = spec("island", ResourceType.HTML)
        page.specs["island_js"] = spec("island_js", ResourceType.JS, "island")
        page.specs["loop_a"] = spec("loop_a", ResourceType.JS, "loop_b")
        page.specs["loop_b"] = spec("loop_b", ResourceType.JS, "loop_a")
        page._children_cache = None
        page._skeleton_cache = None
        stamp = LoadStamp(when_hours=5.0)
        snapshot = page.materialize(stamp)
        assert_same_snapshot(snapshot, reference_materialize(page, stamp))
        island = snapshot.resources["island"]
        assert island.process_order == -1
        assert _names(island.children) == ["island_js"]
        assert "island" not in _names(snapshot.all_resources())


def stray_page():
    """An unvalidated blueprint whose root cannot reach every spec."""
    page = nested_frames_page()
    page.specs["island"] = spec("island", ResourceType.HTML)
    page.specs["island_js"] = spec(
        "island_js", ResourceType.JS, "island", unpredictable=True
    )
    page.specs["loop_a"] = spec("loop_a", ResourceType.JS, "loop_b")
    page.specs["loop_b"] = spec("loop_b", ResourceType.JS, "loop_a")
    page._children_cache = None
    page._skeleton_cache = None
    return page


class TestResolveUrls:
    def test_strays_stay_out_of_the_list(self):
        page = stray_page()
        for stamp in (
            LoadStamp(when_hours=5.0),
            LoadStamp(when_hours=5.0, device="nexus10", nonce=3),
        ):
            urls = page.resolve_urls(stamp)
            assert urls == page.materialize(stamp).urls()
            assert urls == reference_materialize(page, stamp).urls()
            stray_urls = {
                resolve_url(page.specs[name], stamp)
                for name in ("island", "island_js", "loop_a", "loop_b")
            }
            assert not stray_urls & set(urls)

    def test_corpus_pages_match_the_tree(self):
        stamps = [
            LoadStamp(when_hours=DEFAULT_EVAL_HOUR - 1.0, nonce=5),
            LoadStamp(
                when_hours=DEFAULT_EVAL_HOUR, device="nexus10", user="u3"
            ),
        ]
        for page in news_sports_corpus(count=3):
            for stamp in stamps:
                assert page.resolve_urls(stamp) == page.materialize(stamp).urls()

    def test_unknown_device_raises_only_with_a_device_dependent_spec(self):
        stamp = LoadStamp(when_hours=5.0, device="iphone99", nonce=2)
        page = nested_frames_page()
        page.add(
            spec("ad", ResourceType.IMAGE, "root", unpredictable=True)
        )
        assert page.resolve_urls(stamp) == page.materialize(stamp).urls()
        page.add(
            spec("hero", ResourceType.IMAGE, "frame", device_dependent=True)
        )
        with pytest.raises(ValueError, match="unknown device"):
            page.resolve_urls(stamp)
        with pytest.raises(ValueError, match="unknown device"):
            page.materialize(stamp)

    def test_tablet_resizes_only_device_dependent_rows(self):
        page = nested_frames_page()
        page.add(
            spec("hero", ResourceType.IMAGE, "frame", device_dependent=True)
        )
        phone = page.materialize(LoadStamp(when_hours=5.0, device="oneplus3"))
        tablet = page.materialize(LoadStamp(when_hours=5.0, device="nexus10"))
        resized = [
            name
            for name, resource in tablet.resources.items()
            if resource.size != phone.resources[name].size
        ]
        assert resized == ["hero"]
        assert tablet.find("hero").size == int(900 * 1.6)


class TestLazyBodies:
    def test_stable_set_renders_no_body(self, monkeypatch):
        calls = []
        render = markup.render_body

        def counting(resource):
            calls.append(resource.name)
            return render(resource)

        monkeypatch.setattr(markup, "render_body", counting)
        page = news_sports_corpus(count=1)[0]
        stable = OfflineResolver(page).stable_set(DEFAULT_EVAL_HOUR, "phone")
        assert stable["urls"]
        root = page.materialize(LoadStamp(when_hours=DEFAULT_EVAL_HOUR)).root
        offline = VroomResolver(page, ResolutionStrategy.OFFLINE_ONLY)
        assert offline.hints_for(root, as_of_hours=DEFAULT_EVAL_HOUR)
        assert calls == []
        assert root.body
        assert calls == [root.name]

    def test_body_rendered_once_then_cached(self, monkeypatch):
        snapshot = nested_frames_page().materialize(LoadStamp(when_hours=1.0))
        first = snapshot.root.body
        monkeypatch.setattr(markup, "render_body", None)
        assert snapshot.root.body is first

    def test_assignment_wins(self):
        snapshot = nested_frames_page().materialize(LoadStamp(when_hours=1.0))
        snapshot.root.body = "<p>"
        assert snapshot.root.body == "<p>"

    def test_binary_body_is_empty(self):
        snapshot = nested_frames_page().materialize(LoadStamp(when_hours=1.0))
        assert snapshot.find("deep_img").body == ""

    def test_body_stays_out_of_repr_and_eq(self):
        page = nested_frames_page()
        a = page.materialize(LoadStamp(when_hours=1.0)).find("deep_img")
        b = page.materialize(LoadStamp(when_hours=1.0)).find("deep_img")
        a.body = "rendered"
        assert "rendered" not in repr(a)
        a.parent = b.parent = None
        assert a == b


class TestSkeletonMemo:
    def test_add_after_materialize_invalidates(self):
        page = nested_frames_page()
        stamp = LoadStamp(when_hours=3.0)
        page.materialize(stamp)
        page.add(spec("first_img", ResourceType.IMAGE, "root", position=0.0))
        snapshot = page.materialize(stamp)
        assert_same_snapshot(snapshot, reference_materialize(page, stamp))
        assert _names(snapshot.root.children)[0] == "first_img"
        assert snapshot.find("first_img").process_order == 1

    def test_flux_free_urls_shared_across_stamps(self):
        page = nested_frames_page()
        page.add(
            spec("rotating", ResourceType.IMAGE, "root", lifetime_hours=2.0)
        )
        early = page.materialize(LoadStamp(when_hours=1.0))
        late = page.materialize(LoadStamp(when_hours=3.0))
        assert early.find("js").url == late.find("js").url
        assert early.find("rotating").url != late.find("rotating").url

    def test_pickle_leaves_the_skeleton_out(self):
        stamp = LoadStamp(when_hours=2.0)
        built = nested_frames_page()
        built.materialize(stamp)
        plain = nested_frames_page()
        plain.children_of("root")
        assert pickle.dumps(built) == pickle.dumps(plain)
        clone = pickle.loads(pickle.dumps(built))
        assert clone.materialize(stamp).urls() == built.materialize(stamp).urls()
