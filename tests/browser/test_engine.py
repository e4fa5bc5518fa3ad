"""Integration-grade unit tests for the page-load engine."""

import pytest

from repro.browser.cache import BrowserCache
from repro.browser.engine import (
    BrowserConfig,
    PageLoadEngine,
    load_page,
    network_priority,
)
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.replayer import build_servers

STAMP = LoadStamp(when_hours=50.0)


def spec(name, rtype, parent=None, **kw):
    return ResourceSpec(
        name=name,
        rtype=rtype,
        domain=kw.pop("domain", "a.com"),
        size=kw.pop("size", 20_000),
        parent=parent,
        **kw,
    )


def build_page(extra_specs=()):
    page = PageBlueprint(name="eng", root="root")
    page.add(spec("root", ResourceType.HTML, size=30_000))
    page.add(spec("css", ResourceType.CSS, "root", position=0.1))
    page.add(spec("sync_js", ResourceType.JS, "root", position=0.3))
    page.add(
        spec(
            "async_js",
            ResourceType.JS,
            "root",
            position=0.5,
            exec_async=True,
        )
    )
    page.add(spec("img", ResourceType.IMAGE, "root", position=0.7,
                  above_fold=True, pixel_weight=1.0))
    page.add(
        spec(
            "chain_js",
            ResourceType.JS,
            "sync_js",
            discovery=Discovery.SCRIPT_COMPUTED,
        )
    )
    page.add(
        spec(
            "chain_img",
            ResourceType.IMAGE,
            "chain_js",
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
    for extra in extra_specs:
        page.add(extra)
    page.validate()
    return page


def run_load(page, net_config=None, browser_config=None, policy=None):
    snapshot = page.materialize(STAMP)
    store = record_snapshot(snapshot)
    servers = build_servers(store)
    browser = browser_config or BrowserConfig(when_hours=STAMP.when_hours)
    metrics = load_page(snapshot, servers, net_config, browser, policy)
    return snapshot, metrics


class TestBasicLoad:
    def test_onload_fires(self):
        _, metrics = run_load(build_page())
        assert metrics.plt > 0

    def test_every_resource_fetched(self):
        snapshot, metrics = run_load(build_page())
        for resource in snapshot.all_resources():
            timeline = metrics.timelines[resource.url]
            assert timeline.fetched_at is not None, resource.name

    def test_processables_processed(self):
        snapshot, metrics = run_load(build_page())
        for resource in snapshot.all_resources():
            if resource.processable:
                timeline = metrics.timelines[resource.url]
                assert timeline.processed_at is not None, resource.name

    def test_plt_is_last_completion(self):
        _, metrics = run_load(build_page())
        last = max(
            timeline.completion_at
            for timeline in metrics.referenced_timelines()
        )
        assert metrics.plt == pytest.approx(last, abs=1e-6)

    def test_aft_at_most_plt(self):
        _, metrics = run_load(build_page())
        assert metrics.aft <= metrics.plt + 1e-9


class TestDiscoverySemantics:
    def test_static_children_via_scanner(self):
        snapshot, metrics = run_load(build_page())
        css = metrics.timelines[snapshot.find("css").url]
        assert css.discovered_via == "scanner"

    def test_script_children_after_parent_exec(self):
        snapshot, metrics = run_load(build_page())
        parent = metrics.timelines[snapshot.find("sync_js").url]
        child = metrics.timelines[snapshot.find("chain_js").url]
        assert child.discovered_via == "script"
        assert child.discovered_at >= parent.processed_at - 1e-9

    def test_css_ref_after_css_parse(self):
        snapshot, metrics = run_load(build_page())
        sheet = metrics.timelines[snapshot.find("css").url]
        font = metrics.timelines[snapshot.find("font").url]
        assert font.discovered_via == "css"
        assert font.discovered_at >= sheet.processed_at - 1e-9

    def test_chain_order_is_causal(self):
        snapshot, metrics = run_load(build_page())
        js = metrics.timelines[snapshot.find("chain_js").url]
        img = metrics.timelines[snapshot.find("chain_img").url]
        assert img.discovered_at >= js.processed_at - 1e-9

    def test_fetch_after_discovery(self):
        _, metrics = run_load(build_page())
        for timeline in metrics.referenced_timelines():
            assert timeline.fetch_started_at >= timeline.discovered_at - 1e-9

    def test_process_after_fetch(self):
        _, metrics = run_load(build_page())
        for timeline in metrics.referenced_timelines():
            if timeline.processed_at is not None:
                assert timeline.processed_at >= timeline.fetched_at - 1e-9


class TestBlockingSemantics:
    def test_sync_script_blocks_root_parse(self):
        """Root parse cannot finish before a sync script executes."""
        snapshot, metrics = run_load(build_page())
        root = metrics.timelines[snapshot.root.url]
        sync_js = metrics.timelines[snapshot.find("sync_js").url]
        assert root.processed_at >= sync_js.processed_at - 1e-9

    def test_sync_script_waits_for_earlier_css(self):
        snapshot, metrics = run_load(build_page())
        css = metrics.timelines[snapshot.find("css").url]
        sync_js = metrics.timelines[snapshot.find("sync_js").url]
        assert sync_js.processed_at >= css.processed_at - 1e-9

    def test_nonblocking_scripts_mode_unblocks_parse(self):
        """With Polaris-style non-blocking scripts, the root document's
        parse no longer waits for script execution."""
        snap_block, blocking = run_load(build_page())
        snap_free, nonblocking = run_load(
            build_page(),
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours, nonblocking_scripts=True
            ),
        )
        assert (
            nonblocking.timelines[snap_free.root.url].processed_at
            <= blocking.timelines[snap_block.root.url].processed_at + 1e-9
        )


class TestIframes:
    def _page_with_iframe(self):
        frame = spec(
            "frame",
            ResourceType.HTML,
            "root",
            position=0.8,
            domain="b.com",
            size=25_000,
        )
        framed = spec("framed_img", ResourceType.IMAGE, "frame", position=0.5)
        return build_page(extra_specs=[frame, framed])

    def test_iframe_content_loads(self):
        page = self._page_with_iframe()
        snapshot, metrics = run_load(page)
        framed = metrics.timelines[snapshot.find("framed_img").url]
        assert framed.fetched_at is not None

    def test_iframe_processed_after_root_parse(self):
        page = self._page_with_iframe()
        snapshot, metrics = run_load(page)
        root = metrics.timelines[snapshot.root.url]
        frame = metrics.timelines[snapshot.find("frame").url]
        assert frame.processed_at >= root.processed_at - 1e-9


class TestCacheBehaviour:
    def test_warm_cache_speeds_up(self):
        page = build_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)

        cold = load_page(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
        )

        cache = BrowserCache()
        cache.seed_from_snapshot(
            snapshot.all_resources(), when_hours=STAMP.when_hours
        )
        warm = load_page(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours, cache=cache
            ),
        )
        assert warm.plt < cold.plt

    def test_cached_resources_marked(self):
        page = build_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        cache = BrowserCache()
        cache.seed_from_snapshot(
            snapshot.all_resources(), when_hours=STAMP.when_hours
        )
        metrics = load_page(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours, cache=cache
            ),
        )
        cached = [
            t for t in metrics.referenced_timelines() if t.from_cache
        ]
        assert cached

    def test_load_populates_cache(self):
        page = build_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        cache = BrowserCache()
        load_page(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours, cache=cache
            ),
        )
        assert len(cache) > 0


class TestLowerBoundModes:
    def test_preknown_urls_discovers_everything_at_zero(self):
        page = build_page()
        snapshot, metrics = run_load(
            page,
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours,
                preknown_urls=True,
                cpu_scale=0.0,
            ),
        )
        assert metrics.discovery_complete_at() == 0.0

    def test_cpu_scale_zero_removes_processing_cost(self):
        page = build_page()
        normal = run_load(page)[1]
        free_cpu = run_load(
            page,
            browser_config=BrowserConfig(
                when_hours=STAMP.when_hours, cpu_scale=0.0
            ),
        )[1]
        assert free_cpu.plt < normal.plt
        assert free_cpu.cpu_busy_time == 0.0


class TestCookies:
    def test_cookies_never_leak_across_domains(self):
        page = build_page(
            extra_specs=[
                spec("tp_img", ResourceType.IMAGE, "root", domain="c.com",
                     position=0.9)
            ]
        )
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
        )
        engine.run()
        assert not engine.cookies.leaked_across_domains()
        assert "c.com" in engine.cookies.domains_shared_with


class TestNetworkPriority:
    def test_priority_ordering(self, snapshot):
        root = snapshot.root
        assert network_priority(root) < network_priority(
            next(r for r in snapshot.all_resources() if r.rtype is ResourceType.CSS)
        )
        assert network_priority(None) == 5.0


class TestFailureModes:
    def test_wedged_load_raises_with_diagnostics(self):
        page = build_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)

        class StallingPolicy:
            def attach(self, engine):
                self.engine = engine

            def on_discovered(self, url, via):
                pass  # never fetch anything

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
            policy=StallingPolicy(),
        )
        with pytest.raises(RuntimeError, match="never fired onload"):
            engine.run(time_limit=30.0)


class TestScannerDrivers:
    """The preload scanner is armed where each document fetch begins."""

    @staticmethod
    def _frame_page():
        # The iframe's fetch starts only once the root scanner reaches it,
        # well after t=0.
        return build_page(
            extra_specs=[
                spec("frame", ResourceType.HTML, "root", position=0.9),
                spec("frame_img", ResourceType.IMAGE, "frame", position=0.5),
            ]
        )

    def test_one_document_walk_and_one_arm_per_document_fetch(self):
        """One resource-tree walk per load (when iframe parses start),
        and one scanner arm per document fetch begun: no timer re-checks
        documents that are still waiting for their fetch."""
        snapshot = self._frame_page().materialize(STAMP)
        store = record_snapshot(snapshot)
        calls = []
        original = snapshot.documents

        def counting():
            calls.append(None)
            return original()

        snapshot.documents = counting  # instance-level shadow
        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            browser_config=BrowserConfig(when_hours=STAMP.when_hours),
        )
        metrics = engine.run()
        assert len(calls) == 1
        fetches_begun = sum(
            1
            for doc in original()
            if metrics.timelines[doc.url].fetch_started_at is not None
        )
        assert fetches_begun == 2
        assert metrics.engine_counters["browser_wakeups"] == fetches_begun

    def test_cached_document_scanned_when_cache_delivers(self):
        """A cached iframe's references are found once the cache has
        delivered its bytes, not before."""
        page = self._frame_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        cache = BrowserCache()
        cache.seed_from_snapshot(
            snapshot.all_resources(), when_hours=STAMP.when_hours
        )
        browser = BrowserConfig(when_hours=STAMP.when_hours, cache=cache)
        metrics = load_page(
            snapshot, build_servers(store), browser_config=browser
        )
        frame = metrics.timelines[snapshot.find("frame").url]
        child = metrics.timelines[snapshot.find("frame_img").url]
        assert frame.from_cache
        assert child.discovered_via == "scanner"
        assert child.discovered_at == pytest.approx(
            frame.fetch_started_at + browser.cache_hit_latency, abs=1e-12
        )
