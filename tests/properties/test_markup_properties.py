"""Property tests: markup rendering and extraction are exact inverses."""

from hypothesis import given, settings, strategies as st

from repro.pages import markup
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType

_STATIC_KINDS = [
    ResourceType.CSS,
    ResourceType.JS,
    ResourceType.IMAGE,
    ResourceType.HTML,
    ResourceType.VIDEO,
]


@st.composite
def documents(draw):
    page = PageBlueprint(name="mk", root="root")
    page.add(
        ResourceSpec(
            "root",
            ResourceType.HTML,
            "m.com",
            draw(st.integers(min_value=2_000, max_value=50_000)),
        )
    )
    n_children = draw(st.integers(min_value=0, max_value=15))
    for index in range(n_children):
        rtype = draw(st.sampled_from(_STATIC_KINDS))
        discovery = Discovery.STATIC_MARKUP
        parent = "root"
        page.add(
            ResourceSpec(
                f"c{index}",
                rtype,
                draw(st.sampled_from(["m.com", "cdn.m.com"])),
                draw(st.integers(min_value=100, max_value=20_000)),
                parent=parent,
                position=draw(st.floats(min_value=0.0, max_value=1.0)),
                discovery=discovery,
            )
        )
    page.validate()
    return page.materialize(LoadStamp(when_hours=9.0)).root


@given(documents())
@settings(max_examples=40, deadline=None)
def test_extraction_recovers_exactly_the_static_children(doc):
    urls = doc.scan.urls
    static = [
        child.url
        for child in doc.children
        if child.spec.discovery is Discovery.STATIC_MARKUP
    ]
    assert sorted(set(urls)) == sorted(set(static))


@given(documents())
@settings(max_examples=40, deadline=None)
def test_body_size_always_exact(doc):
    assert len(doc.body) == doc.size


@given(documents())
@settings(max_examples=40, deadline=None)
def test_offsets_within_body(doc):
    for url, offset in markup.extract_urls_with_offsets(doc.body):
        assert 0 < offset <= len(doc.body)
        assert url in doc.body[:offset]


@given(documents())
@settings(max_examples=40, deadline=None)
def test_stored_scan_matches_a_fresh_derivation(doc):
    scan = doc.scan
    first_end = {}
    for url, end in markup.extract_urls_with_offsets(doc.body):
        first_end.setdefault(url, end)
    static = [
        child
        for child in doc.children
        if child.spec.discovery is Discovery.STATIC_MARKUP
    ]
    want = sorted(
        ((child.name, first_end[child.url]) for child in static),
        key=lambda pair: pair[1],
    )
    assert [(ref.child.name, ref.byte_offset) for ref in scan.refs] == want
    assert scan.urls == tuple(first_end)
    assert doc.scan is scan
