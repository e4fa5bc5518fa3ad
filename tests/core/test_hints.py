"""Unit tests for dependency hints (Table 1 semantics)."""

from repro.core.hints import (
    DependencyHint,
    HEADER_BY_PRIORITY,
    bundle_from_hints,
)
from repro.pages.resources import Priority


def hint(url, priority=Priority.PRELOAD, order=0):
    return DependencyHint(url=url, priority=priority, order=order)


class TestHeaders:
    def test_table1_header_names(self):
        assert HEADER_BY_PRIORITY[Priority.PRELOAD] == "link-preload"
        assert HEADER_BY_PRIORITY[Priority.SEMI_IMPORTANT] == "x-semi-important"
        assert HEADER_BY_PRIORITY[Priority.UNIMPORTANT] == "x-unimportant"

    def test_bundle_headers_grouped_and_ordered(self):
        bundle = bundle_from_hints(
            "a.com/p.html",
            [
                hint("a.com/late.js", Priority.PRELOAD, order=5),
                hint("a.com/early.js", Priority.PRELOAD, order=1),
                hint("a.com/img.jpg", Priority.UNIMPORTANT, order=2),
            ],
        )
        headers = bundle.headers()
        assert headers["link-preload"] == ["a.com/early.js", "a.com/late.js"]
        assert headers["x-unimportant"] == ["a.com/img.jpg"]
        assert "x-semi-important" not in headers


class TestBundleConstruction:
    def test_dedup_keeps_first(self):
        bundle = bundle_from_hints(
            "a.com/p.html",
            [
                hint("a.com/x.js", Priority.PRELOAD, 0),
                hint("a.com/x.js", Priority.UNIMPORTANT, 1),
            ],
        )
        assert len(bundle) == 1
        assert bundle.hints[0].priority is Priority.PRELOAD

    def test_source_url_never_hinted(self):
        bundle = bundle_from_hints(
            "a.com/p.html", [hint("a.com/p.html"), hint("a.com/x.js")]
        )
        assert bundle.urls() == ["a.com/x.js"]

    def test_iteration_and_len(self):
        bundle = bundle_from_hints("s", [hint("a"), hint("b")])
        assert len(bundle) == 2
        assert [h.url for h in bundle] == ["a", "b"]
