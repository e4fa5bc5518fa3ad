"""Failure injection: the system must fail loudly, never silently wrong."""

import pytest

from repro.browser.engine import BrowserConfig, PageLoadEngine, load_page
from repro.net.http import NetworkConfig
from repro.net.origin import OriginServer, Response
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.replayer import build_servers

STAMP = LoadStamp(when_hours=10.0)


def tiny_page():
    page = PageBlueprint(name="fail", root="root")
    page.add(
        ResourceSpec(
            name="root",
            rtype=ResourceType.HTML,
            domain="a.com",
            size=10_000,
        )
    )
    page.add(
        ResourceSpec(
            name="js",
            rtype=ResourceType.JS,
            domain="a.com",
            size=5_000,
            parent="root",
            position=0.4,
        )
    )
    page.validate()
    return page


class TestMissingContent:
    def test_missing_url_raises_key_error(self):
        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        # Sabotage: remove the script from the replay store.
        js_url = snapshot.find("js").url
        del store.responses[js_url]
        with pytest.raises(KeyError):
            load_page(
                snapshot,
                build_servers(store),
                browser_config=BrowserConfig(when_hours=STAMP.when_hours),
            )

    def test_missing_domain_raises(self):
        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        servers = build_servers(store)
        del servers["a.com"]
        with pytest.raises(KeyError):
            load_page(
                snapshot,
                servers,
                browser_config=BrowserConfig(when_hours=STAMP.when_hours),
            )


class TestBrokenResponder:
    def test_zero_size_response_completes(self):
        """A zero-byte body must not wedge the stream machinery."""
        page = tiny_page()
        snapshot = page.materialize(STAMP)
        js_url = snapshot.find("js").url
        root = snapshot.root

        def respond(url, is_push):
            if url == root.url:
                return Response(url=url, size=root.size)
            if url == js_url:
                return Response(url=url, size=0)
            return None

        servers = {"a.com": OriginServer("a.com", respond, 0.03)}
        metrics = load_page(
            snapshot,
            servers,
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
        )
        assert metrics.plt > 0

    def test_wedged_load_lists_what_blocked_it(self):
        """Diagnostics name the stuck obligations."""
        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)

        class NoFetchPolicy:
            def attach(self, engine):
                self.engine = engine

            def on_discovered(self, url, via):
                if "root" in url:
                    self.engine.start_fetch(url, priority=0.5)

            def on_headers(self, fetch):
                pass

            def on_fetched(self, url):
                pass

            def ensure_fetch(self, url):
                pass

        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
            policy=NoFetchPolicy(),
        )
        with pytest.raises(RuntimeError) as exc_info:
            engine.run(time_limit=20.0)
        assert "fetch:" in str(exc_info.value)


class TestBadHints:
    def test_hints_for_unservable_urls_raise(self):
        """A hint pointing at a domain with no server is a loud error,
        not a hang."""
        from repro.core.hints import DependencyHint
        from repro.pages.resources import Priority

        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)

        def decorate(resource, response, is_push):
            if resource.is_document:
                response.hints = [
                    DependencyHint(
                        url="ghost.com/missing.js",
                        priority=Priority.PRELOAD,
                    )
                ]
            return response

        from repro.core.scheduler import VroomScheduler

        servers = build_servers(store, decorator=decorate)
        engine = PageLoadEngine(
            snapshot,
            servers,
            NetworkConfig(),
            BrowserConfig(when_hours=STAMP.when_hours),
            policy=VroomScheduler(),
        )
        with pytest.raises((KeyError, RuntimeError)):
            engine.run(time_limit=20.0)

    def test_hint_for_wrong_domain_content_raises(self):
        """A served domain that lacks the hinted path errors loudly."""
        from repro.core.hints import DependencyHint
        from repro.core.scheduler import VroomScheduler
        from repro.pages.resources import Priority

        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)

        def decorate(resource, response, is_push):
            if resource.is_document:
                response.hints = [
                    DependencyHint(
                        url="a.com/not-recorded.js",
                        priority=Priority.PRELOAD,
                    )
                ]
            return response

        servers = build_servers(store, decorator=decorate)
        engine = PageLoadEngine(
            snapshot,
            servers,
            NetworkConfig(),
            BrowserConfig(when_hours=STAMP.when_hours),
            policy=VroomScheduler(),
        )
        with pytest.raises((KeyError, RuntimeError)):
            engine.run(time_limit=20.0)


class TestTimeLimit:
    def test_time_limit_triggers_diagnostics(self):
        """An absurdly small time limit reports pending obligations."""
        page = tiny_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
        )
        with pytest.raises(RuntimeError, match="never fired onload"):
            engine.run(time_limit=0.01)
