"""Unit tests for synthetic markup rendering and extraction."""

from repro.pages import markup
from repro.pages.resources import Discovery, Resource, ResourceSpec, ResourceType


def make_resource(name, rtype, discovery=Discovery.STATIC_MARKUP, **kw):
    spec = ResourceSpec(
        name=name,
        rtype=rtype,
        domain="a.com",
        size=kw.pop("size", 1000),
        parent=kw.pop("parent", None),
        discovery=discovery,
        **kw,
    )
    return Resource(
        spec=spec, url=f"a.com/{name}.{rtype.value}", size=spec.size
    )


def doc_with_children(children, size=5000):
    doc = make_resource("doc", ResourceType.HTML, size=size)
    for child in children:
        child.parent = doc
        doc.children.append(child)
    doc.body = markup.render_document(doc, size)
    return doc


class TestRenderDocument:
    def test_body_has_exact_size(self):
        doc = doc_with_children(
            [make_resource("img0", ResourceType.IMAGE, position=0.4)]
        )
        assert len(doc.body) == 5000

    def test_static_children_appear(self):
        img = make_resource("img0", ResourceType.IMAGE, position=0.3)
        css = make_resource("css0", ResourceType.CSS, position=0.1)
        doc = doc_with_children([img, css])
        assert img.url in doc.body
        assert css.url in doc.body

    def test_script_computed_children_hidden(self):
        hidden = make_resource(
            "dyn", ResourceType.IMAGE, discovery=Discovery.SCRIPT_COMPUTED
        )
        doc = doc_with_children([hidden])
        assert hidden.url not in doc.body

    def test_children_ordered_by_position(self):
        early = make_resource("early", ResourceType.IMAGE, position=0.1)
        late = make_resource("late", ResourceType.IMAGE, position=0.9)
        doc = doc_with_children([late, early])
        assert doc.body.index(early.url) < doc.body.index(late.url)

    def test_async_script_gets_async_attribute(self):
        script = make_resource(
            "ajs", ResourceType.JS, position=0.5, exec_async=True
        )
        doc = doc_with_children([script])
        start = doc.body.index(script.url)
        tag = doc.body[max(0, start - 60):start]
        assert "async" in tag


class TestRenderScript:
    def test_computed_child_url_not_literal(self):
        script = make_resource("s", ResourceType.JS, size=2000)
        child = make_resource(
            "kid", ResourceType.IMAGE, discovery=Discovery.SCRIPT_COMPUTED
        )
        child.parent = script
        script.children.append(child)
        body = markup.render_script(script, 2000)
        assert child.url not in body
        # ...but the pieces are there (the script really references it).
        assert child.url[: len(child.url) // 2] in body

    def test_script_body_size(self):
        script = make_resource("s", ResourceType.JS, size=1234)
        assert len(markup.render_script(script, 1234)) == 1234


class TestRenderStylesheet:
    def test_css_children_via_url_refs(self):
        sheet = make_resource("c", ResourceType.CSS, size=900)
        font = make_resource(
            "f", ResourceType.FONT, discovery=Discovery.CSS_REF
        )
        font.parent = sheet
        sheet.children.append(font)
        body = markup.render_stylesheet(sheet, 900)
        assert f"url({font.url})" in body
        assert markup.extract_css_urls(body) == [font.url]


class TestExtraction:
    def test_extract_urls_roundtrip(self):
        children = [
            make_resource("i0", ResourceType.IMAGE, position=0.2),
            make_resource("j0", ResourceType.JS, position=0.4),
            make_resource("c0", ResourceType.CSS, position=0.6),
            make_resource("f0", ResourceType.HTML, position=0.8),
        ]
        doc = doc_with_children(children)
        extracted = [
            url for url, _ in markup.extract_urls_with_offsets(doc.body)
        ]
        assert extracted == [child.url for child in doc.children]

    def test_offsets_are_monotone_and_cover_tags(self):
        children = [
            make_resource(f"i{i}", ResourceType.IMAGE, position=i / 10)
            for i in range(1, 6)
        ]
        doc = doc_with_children(children)
        pairs = markup.extract_urls_with_offsets(doc.body)
        offsets = [offset for _, offset in pairs]
        assert offsets == sorted(offsets)
        for url, offset in pairs:
            assert url in doc.body[:offset]

    def test_extract_from_empty_body(self):
        assert markup.extract_urls_with_offsets("") == []
        assert markup.extract_css_urls("") == []


class TestScanDocument:
    def test_first_tag_wins_and_a_missing_tag_falls_back(self):
        shown = make_resource("shown", ResourceType.IMAGE, position=0.9)
        missing = make_resource("missing", ResourceType.CSS, position=0.5)
        hidden = make_resource(
            "hidden", ResourceType.IMAGE, discovery=Discovery.SCRIPT_COMPUTED
        )
        doc = doc_with_children([shown, missing, hidden], size=1000)
        tag = f'<img src="{shown.url}"'
        doc.body = f"{tag}>..{tag}>"
        scan = markup.scan_document(doc)
        assert [(ref.child.name, ref.byte_offset) for ref in scan.refs] == [
            ("shown", len(tag)),
            ("missing", 500),
        ]
        assert scan.urls == (shown.url,)

    def test_equal_offsets_keep_child_order(self):
        first = make_resource("first", ResourceType.IMAGE, position=0.5)
        second = make_resource("second", ResourceType.IMAGE, position=0.5)
        doc = doc_with_children([first, second], size=1000)
        doc.body = ""
        names = [ref.child.name for ref in markup.scan_document(doc).refs]
        assert names == ["first", "second"]


def test_render_body_dispatch():
    doc = make_resource("d", ResourceType.HTML, size=600)
    js = make_resource("j", ResourceType.JS, size=600)
    css = make_resource("c", ResourceType.CSS, size=600)
    img = make_resource("i", ResourceType.IMAGE, size=600)
    assert markup.render_body(doc).startswith("<html>")
    assert "function" in markup.render_body(js)
    assert "body" in markup.render_body(css)
    assert markup.render_body(img) == ""
