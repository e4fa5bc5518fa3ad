"""Unit tests for blueprints and snapshots."""

from collections import Counter

import pytest

from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType

STAMP = LoadStamp(when_hours=10.0)


def spec(name, rtype, parent=None, **kw):
    return ResourceSpec(
        name=name,
        rtype=rtype,
        domain=kw.pop("domain", "a.com"),
        size=kw.pop("size", 1000),
        parent=parent,
        **kw,
    )


def tiny_page():
    page = PageBlueprint(name="tiny", root="root")
    page.add(spec("root", ResourceType.HTML))
    page.add(spec("css", ResourceType.CSS, "root", position=0.1))
    page.add(spec("js", ResourceType.JS, "root", position=0.3))
    page.add(
        spec(
            "dyn",
            ResourceType.IMAGE,
            "js",
            discovery=Discovery.SCRIPT_COMPUTED,
        )
    )
    page.add(
        spec(
            "font",
            ResourceType.FONT,
            "css",
            discovery=Discovery.CSS_REF,
        )
    )
    page.add(
        spec(
            "frame",
            ResourceType.HTML,
            "root",
            position=0.8,
            domain="b.com",
        )
    )
    page.add(spec("framed_img", ResourceType.IMAGE, "frame", position=0.5))
    page.validate()
    return page


class TestBlueprint:
    def test_duplicate_name_rejected(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        with pytest.raises(ValueError):
            page.add(spec("root", ResourceType.HTML))

    def test_unknown_parent_rejected(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        with pytest.raises(ValueError):
            page.add(spec("x", ResourceType.JS, "missing"))

    def test_validate_requires_root(self):
        page = PageBlueprint(name="p", root="nope")
        page.add(spec("root", ResourceType.HTML))
        with pytest.raises(ValueError):
            page.validate()

    def test_validate_rejects_orphan(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        page.specs["stray"] = spec("stray", ResourceType.JS)
        with pytest.raises(ValueError):
            page.validate()

    def test_validate_rejects_css_ref_under_script(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        page.add(spec("js", ResourceType.JS, "root"))
        page.add(
            spec(
                "bad",
                ResourceType.FONT,
                "js",
                discovery=Discovery.CSS_REF,
            )
        )
        with pytest.raises(ValueError):
            page.validate()

    def test_validate_rejects_static_under_js(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        page.add(spec("js", ResourceType.JS, "root"))
        page.add(spec("bad", ResourceType.IMAGE, "js"))
        with pytest.raises(ValueError):
            page.validate()

    def test_children_sorted_by_position(self):
        page = PageBlueprint(name="p", root="root")
        page.add(spec("root", ResourceType.HTML))
        page.add(spec("late", ResourceType.IMAGE, "root", position=0.9))
        page.add(spec("early", ResourceType.IMAGE, "root", position=0.1))
        names = [child.name for child in page.children_of("root")]
        assert names == ["early", "late"]


class TestSnapshot:
    def test_materialize_counts(self):
        snap = tiny_page().materialize(STAMP)
        assert len(snap.all_resources()) == 7

    def test_parent_child_wiring(self):
        snap = tiny_page().materialize(STAMP)
        js = snap.find("js")
        dyn = snap.find("dyn")
        assert dyn.parent is js
        assert dyn in js.children

    def test_iframe_flags(self):
        snap = tiny_page().materialize(STAMP)
        frame = snap.find("frame")
        framed = snap.find("framed_img")
        assert frame.is_iframe_doc
        assert not frame.in_iframe
        assert framed.in_iframe
        assert not snap.root.is_iframe_doc

    def test_process_order_is_preorder(self):
        snap = tiny_page().materialize(STAMP)
        orders = [r.process_order for r in snap.all_resources()]
        assert orders == sorted(orders)
        assert snap.root.process_order == 0

    def test_documents_have_bodies(self):
        snap = tiny_page().materialize(STAMP)
        for doc in snap.documents():
            assert len(doc.body) == doc.size

    def test_by_url_bijective(self):
        snap = tiny_page().materialize(STAMP)
        by_url = snap.by_url()
        assert len(by_url) == len(snap.all_resources())

    def test_total_bytes(self):
        snap = tiny_page().materialize(STAMP)
        assert snap.total_bytes() == sum(
            resource.size for resource in snap.all_resources()
        )

    def test_domains(self):
        snap = tiny_page().materialize(STAMP)
        assert set(snap.domains()) == {"a.com", "b.com"}

    def test_hintable_descendants_cut_at_iframe(self):
        snap = tiny_page().materialize(STAMP)
        hintable = snap.hintable_descendants(snap.root)
        names = {resource.name for resource in hintable}
        assert "frame" in names          # the iframe URL itself is hinted
        assert "framed_img" not in names  # but nothing beneath it
        assert "dyn" in names            # script-derived is inside envelope
        assert "font" in names           # css-derived too

    def test_processable_bytes_subset(self):
        snap = tiny_page().materialize(STAMP)
        assert 0 < snap.processable_bytes() < snap.total_bytes()


class TestSnapshotComparisons:
    def test_shared_urls_identity(self):
        # Two loads under one stamp fetch the same URLs, in the same order.
        page = tiny_page()
        a = page.materialize(STAMP)
        b = page.materialize(STAMP)
        assert a.urls() == b.urls() == page.resolve_urls(STAMP)
        assert len(set(a.urls())) == len(page.specs)

    def test_merge_url_sets_counts(self):
        # Every URL appears exactly once in each same-stamp load, whether
        # materialized or only resolved (three of each).
        page = tiny_page()
        loads = [page.materialize(STAMP).urls() for _ in range(3)]
        loads += [page.resolve_urls(STAMP) for _ in range(3)]
        counts = Counter(url for urls in loads for url in urls)
        assert len(counts) == len(page.specs)
        assert all(count == 6 for count in counts.values())

    def test_back_to_back_loads_differ_only_in_nonce_urls(self):
        page = tiny_page()
        page.add(
            spec("beacon", ResourceType.IMAGE, "root", unpredictable=True)
        )
        first = page.resolve_urls(STAMP)
        second = page.resolve_urls(STAMP.back_to_back())
        changed = [
            resource.name
            for resource, a, b in zip(
                page.materialize(STAMP).all_resources(), first, second
            )
            if a != b
        ]
        assert changed == ["beacon"]
