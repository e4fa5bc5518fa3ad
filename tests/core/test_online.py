"""Unit tests for online HTML analysis."""

from repro.calibration import VROOM_ONLINE_PARSE_OVERHEAD
from repro.core.online import analyze_html
from repro.pages.resources import Discovery


def custom_doc(small_page, stamp, body):
    """A fresh root document whose served body is ``body``."""
    doc = small_page.materialize(stamp).root
    doc.body = body
    return doc


class TestAnalyzeHtml:
    def test_finds_exactly_static_children(self, snapshot):
        root = snapshot.root
        analysis = analyze_html(root)
        assert analysis.source_url == root.url
        static_urls = {
            child.url
            for child in root.children
            if child.spec.discovery is Discovery.STATIC_MARKUP
        }
        assert set(analysis.urls) == static_urls

    def test_misses_script_computed_urls(self, snapshot):
        root = snapshot.root
        analysis = analyze_html(root)
        computed = {
            child.url
            for child in root.children
            if child.spec.discovery is Discovery.SCRIPT_COMPUTED
        }
        assert not (set(analysis.urls) & computed)

    def test_urls_in_document_order(self, snapshot):
        root = snapshot.root
        analysis = analyze_html(root)
        positions = [root.body.index(url) for url in analysis.urls]
        assert positions == sorted(positions)

    def test_deduplicates(self, small_page, stamp):
        body = '<img src="a.com/x.jpg"><img src="a.com/x.jpg">'
        analysis = analyze_html(custom_doc(small_page, stamp, body))
        assert analysis.urls == ["a.com/x.jpg"]

    def test_overhead_reported(self, snapshot):
        analysis = analyze_html(snapshot.root)
        assert analysis.parse_overhead == VROOM_ONLINE_PARSE_OVERHEAD

    def test_empty_body(self, small_page, stamp):
        analysis = analyze_html(custom_doc(small_page, stamp, ""))
        assert len(analysis) == 0

    def test_works_on_iframe_documents(self, snapshot):
        frames = [doc for doc in snapshot.documents() if doc.parent]
        for frame in frames:
            analysis = analyze_html(frame)
            static = {
                child.url
                for child in frame.children
                if child.spec.discovery is Discovery.STATIC_MARKUP
            }
            assert set(analysis.urls) == static
