"""Deterministic fault injection: plans, timeouts, retries, degradation."""

from dataclasses import asdict

import pytest

from repro.browser.engine import BrowserConfig, load_page
from repro.core.scheduler import VroomScheduler
from repro.net.faults import (
    ERROR_RESPONSE_BYTES,
    FaultKind,
    FaultPlan,
    FaultRule,
    ResiliencePolicy,
    hint_fault_plan,
)
from repro.net.http import NetworkConfig
from repro.net.origin import OriginServer, Response
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.replayer import build_servers

STAMP = LoadStamp(when_hours=10.0)


def tiny_page():
    page = PageBlueprint(name="faulty", root="root")
    page.add(
        ResourceSpec(
            name="root",
            rtype=ResourceType.HTML,
            domain="a.com",
            size=12_000,
        )
    )
    page.add(
        ResourceSpec(
            name="js",
            rtype=ResourceType.JS,
            domain="a.com",
            size=6_000,
            parent="root",
            position=0.4,
        )
    )
    page.add(
        ResourceSpec(
            name="img",
            rtype=ResourceType.IMAGE,
            domain="b.com",
            size=20_000,
            parent="root",
            position=0.7,
        )
    )
    page.validate()
    return page


def materialized():
    page = tiny_page()
    snapshot = page.materialize(STAMP)
    store = record_snapshot(snapshot)
    return snapshot, store


def faulted_load(snapshot, store, net_config, **kwargs):
    return load_page(
        snapshot,
        build_servers(store),
        net_config,
        BrowserConfig(when_hours=STAMP.when_hours),
        **kwargs,
    )


class TestFaultRule:
    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(kind=FaultKind.STALL, rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule(kind=FaultKind.STALL, rate=-0.1)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            FaultRule(kind=FaultKind.STALL, not_before=2.0, not_after=1.0)

    def test_filters(self):
        rule = FaultRule(
            kind=FaultKind.STALL,
            url_substring="ads",
            domain="cdn.com",
            hints_only=True,
            not_before=1.0,
            not_after=2.0,
        )
        ok = dict(now=1.5, is_hint=True)
        assert rule.matches("cdn.com/ads.js", "cdn.com", **ok)
        assert not rule.matches("cdn.com/app.js", "cdn.com", **ok)
        assert not rule.matches("cdn.com/ads.js", "other.com", **ok)
        assert not rule.matches("cdn.com/ads.js", "cdn.com", now=0.5, is_hint=True)
        assert not rule.matches("cdn.com/ads.js", "cdn.com", now=2.5, is_hint=True)
        assert not rule.matches("cdn.com/ads.js", "cdn.com", now=1.5, is_hint=False)


class TestFaultPlan:
    def test_empty_plan_never_faults(self):
        plan = FaultPlan(seed=3)
        for attempt in (1, 2, 3):
            assert plan.server_fault("a.com/x", "a.com", now=0.0, attempt=attempt) is None
            assert plan.transport_fault("a.com/x", "a.com", now=0.0, attempt=attempt) is None

    def test_rate_one_always_fires(self):
        plan = FaultPlan().with_rule(FaultRule(kind=FaultKind.STALL, rate=1.0))
        for attempt in (1, 2, 5):
            assert (
                plan.transport_fault("a.com/x", "a.com", now=0.0, attempt=attempt)
                is FaultKind.STALL
            )

    def test_rate_zero_never_fires(self):
        plan = FaultPlan().with_rule(FaultRule(kind=FaultKind.STALL, rate=0.0))
        assert plan.transport_fault("a.com/x", "a.com", now=0.0, attempt=1) is None

    def test_decisions_deterministic_across_plan_copies(self):
        rule = FaultRule(kind=FaultKind.CONNECTION_DROP, rate=0.5)
        a = FaultPlan(seed=11).with_rule(rule)
        b = FaultPlan(seed=11).with_rule(rule)
        urls = [f"a.com/r{i}.js" for i in range(200)]
        def decide(plan, url):
            return plan.transport_fault(url, "a.com", now=0.0, attempt=1)
        assert [decide(a, url) for url in urls] == [decide(b, url) for url in urls]

    def test_seed_changes_decisions(self):
        rule = FaultRule(kind=FaultKind.CONNECTION_DROP, rate=0.5)
        a = FaultPlan(seed=0).with_rule(rule)
        b = FaultPlan(seed=1).with_rule(rule)
        urls = [f"a.com/r{i}.js" for i in range(200)]
        def decide(plan, url):
            return plan.transport_fault(url, "a.com", now=0.0, attempt=1)
        assert [decide(a, url) for url in urls] != [decide(b, url) for url in urls]

    def test_retries_reroll_per_attempt(self):
        plan = FaultPlan(seed=5).with_rule(
            FaultRule(kind=FaultKind.STALL, rate=0.5)
        )
        outcomes = {
            plan.transport_fault("a.com/x.js", "a.com", now=0.0, attempt=attempt)
            for attempt in range(1, 30)
        }
        assert outcomes == {None, FaultKind.STALL}

    def test_first_matching_rule_wins(self):
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.STALL, rate=1.0, url_substring="js")
        ).with_rule(
            FaultRule(kind=FaultKind.CONNECTION_DROP, rate=1.0)
        )
        assert (
            plan.transport_fault("a.com/app.js", "a.com", now=0.0, attempt=1)
            is FaultKind.STALL
        )
        assert (
            plan.transport_fault("a.com/logo.png", "a.com", now=0.0, attempt=1)
            is FaultKind.CONNECTION_DROP
        )

    def test_server_and_transport_lanes_are_disjoint(self):
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0)
        )
        assert (
            plan.server_fault("a.com/x", "a.com", now=0.0, attempt=1)
            is FaultKind.SERVER_ERROR
        )
        assert plan.transport_fault("a.com/x", "a.com", now=0.0, attempt=1) is None

    def test_drop_fraction_stays_inside_body(self):
        plan = FaultPlan(seed=9)
        for i in range(100):
            fraction = plan.drop_fraction(f"a.com/r{i}", attempt=1)
            assert 0.1 <= fraction <= 0.9


class TestHintFaultPlan:
    def test_zero_rate_is_empty_plan(self):
        assert hint_fault_plan(0.0).rules == ()

    def test_rules_are_hints_only(self):
        plan = hint_fault_plan(0.2)
        assert plan.rules
        assert all(rule.hints_only for rule in plan.rules)

    def test_combined_rate_matches_request(self):
        plan = hint_fault_plan(0.3, seed=1)
        urls = [f"cdn.com/r{i}.js" for i in range(2000)]
        faulted = sum(
            plan.transport_fault(url, "cdn.com", now=0.0, attempt=1, is_hint=True)
            is not None
            or plan.server_fault(url, "cdn.com", now=0.0, attempt=1, is_hint=True)
            is not None
            for url in urls
        )
        assert abs(faulted / len(urls) - 0.3) < 0.05

    def test_non_hints_untouched(self):
        plan = hint_fault_plan(1.0)
        assert plan.transport_fault("a.com/x", "a.com", now=0.0, attempt=1) is None
        assert plan.server_fault("a.com/x", "a.com", now=0.0, attempt=1) is None

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            hint_fault_plan(1.5)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(request_timeout=-1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(retry_backoff=-0.5)


class TestOriginServerFaults:
    def respond(self, url, is_push):
        return Response(url=url, size=1000)

    def test_server_error_response(self):
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0)
        )
        server = OriginServer("a.com", self.respond, fault_plan=plan)
        response = server.respond("a.com/x")
        assert response.error
        assert response.size == ERROR_RESPONSE_BYTES
        assert not response.cacheable
        assert server.errors_served == 1
        assert server.requests_served == 0

    def test_pushes_exempt(self):
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0)
        )
        server = OriginServer("a.com", self.respond, fault_plan=plan)
        response = server.respond("a.com/x", is_push=True)
        assert not response.error
        assert server.errors_served == 0


class TestFaultedLoads:
    """End-to-end: faulted loads complete, counters move, zero-fault is
    bit-identical."""

    def test_zero_fault_plan_bit_identical(self):
        snapshot, store = materialized()
        plain = faulted_load(snapshot, store, NetworkConfig())
        clean = faulted_load(
            snapshot,
            store,
            NetworkConfig(
                fault_plan=hint_fault_plan(0.0),
                request_timeout=5.0,
                max_retries=2,
            ),
        )
        assert clean.plt == plain.plt
        assert clean.aft == plain.aft
        assert clean.speed_index == plain.speed_index
        assert clean.bytes_fetched == plain.bytes_fetched
        assert (
            clean.retries,
            clean.timeouts,
            clean.connection_drops,
            clean.error_responses,
            clean.failed_fetches,
            clean.fault_wasted_bytes,
        ) == (0, 0, 0, 0, 0, 0.0)

    def test_stall_then_timeout_then_retry_succeeds(self):
        """A stall inside a short time window: the first attempt times out
        and the retry, dispatched after the window closed, succeeds."""
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(
                kind=FaultKind.STALL,
                rate=1.0,
                url_substring="js",
                not_after=1.0,
            )
        )
        metrics = faulted_load(
            snapshot,
            store,
            NetworkConfig(
                fault_plan=plan, request_timeout=1.5, max_retries=3
            ),
        )
        assert metrics.plt > 0
        assert metrics.timeouts >= 1
        assert metrics.retries >= 1
        assert metrics.failed_fetches == 0
        js_url = snapshot.find("js").url
        assert metrics.timelines[js_url].fetched_at is not None

    def test_stall_without_timeout_wedges_loudly(self):
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.STALL, rate=1.0, url_substring="js")
        )
        from repro.browser.engine import PageLoadEngine

        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            NetworkConfig(fault_plan=plan),
            BrowserConfig(when_hours=STAMP.when_hours),
        )
        with pytest.raises(RuntimeError, match="never fired onload"):
            engine.run(time_limit=30.0)

    def test_server_error_retries_and_counts_waste(self):
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(
                kind=FaultKind.SERVER_ERROR,
                rate=1.0,
                url_substring="js",
                not_after=1.0,
            )
        )
        metrics = faulted_load(
            snapshot,
            store,
            NetworkConfig(fault_plan=plan, max_retries=3, retry_backoff=0.3),
        )
        assert metrics.plt > 0
        assert metrics.error_responses >= 1
        assert metrics.retries >= 1
        assert metrics.failed_fetches == 0
        assert metrics.fault_wasted_bytes > 0

    def test_connection_drop_wastes_partial_body(self):
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(
                kind=FaultKind.CONNECTION_DROP,
                rate=1.0,
                url_substring="img",
                not_after=2.0,
            )
        )
        metrics = faulted_load(
            snapshot,
            store,
            NetworkConfig(fault_plan=plan, max_retries=5, retry_backoff=0.3),
        )
        assert metrics.plt > 0
        assert metrics.connection_drops >= 1
        assert metrics.fault_wasted_bytes > 0

    def test_slow_start_reset_completes_and_slows(self):
        snapshot, store = materialized()
        baseline = faulted_load(snapshot, store, NetworkConfig())
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.SLOW_START_RESET, rate=1.0)
        )
        metrics = faulted_load(
            snapshot, store, NetworkConfig(fault_plan=plan)
        )
        assert metrics.plt >= baseline.plt
        assert metrics.failed_fetches == 0
        assert metrics.retries == 0

    def test_exhausted_retries_fail_load_still_completes(self):
        """A locally needed resource that never arrives is written off
        with browser error-event semantics; onload still fires."""
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.STALL, rate=1.0, url_substring="img")
        )
        metrics = faulted_load(
            snapshot,
            store,
            NetworkConfig(
                fault_plan=plan, request_timeout=1.0, max_retries=1
            ),
        )
        assert metrics.plt > 0
        assert metrics.failed_fetches >= 1
        assert metrics.timeouts >= 2  # every attempt timed out
        img_url = snapshot.find("img").url
        assert metrics.timelines[img_url].failed
        assert metrics.timelines[img_url].fetched_at is None

    def test_failed_root_raises(self):
        """A navigation whose HTML never arrives has no meaningful PLT."""
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.STALL, rate=1.0, url_substring="root")
        )
        from repro.browser.engine import PageLoadEngine

        engine = PageLoadEngine(
            snapshot,
            build_servers(store),
            NetworkConfig(
                fault_plan=plan, request_timeout=0.2, max_retries=1
            ),
            BrowserConfig(when_hours=STAMP.when_hours),
        )
        with pytest.raises(RuntimeError):
            engine.run(time_limit=30.0)


class TestHintDegradation:
    """Failed hint prefetches fall back to vanilla local discovery."""

    @staticmethod
    def chained_page():
        """root -> scriptA (static) -> scriptB (script-computed).

        scriptB's URL is only discoverable locally when scriptA executes,
        so a hint prefetch for it can fail terminally well before the page
        references it — exercising the refetch-on-local-reference path.
        """
        from repro.pages.resources import Discovery

        page = PageBlueprint(name="chained", root="root")
        page.add(
            ResourceSpec(
                name="root",
                rtype=ResourceType.HTML,
                domain="a.com",
                size=12_000,
            )
        )
        page.add(
            ResourceSpec(
                name="scriptA",
                rtype=ResourceType.JS,
                domain="a.com",
                size=6_000,
                parent="root",
                position=0.3,
            )
        )
        page.add(
            ResourceSpec(
                name="scriptB",
                rtype=ResourceType.JS,
                domain="a.com",
                size=4_000,
                parent="scriptA",
                discovery=Discovery.SCRIPT_COMPUTED,
            )
        )
        page.validate()
        return page

    def hinted_servers(self, snapshot, store):
        from repro.core.hints import DependencyHint
        from repro.pages.resources import Priority

        hinted_url = snapshot.find("scriptB").url

        def decorate(resource, response, is_push):
            if resource.is_document:
                response.hints = [
                    DependencyHint(url=hinted_url, priority=Priority.PRELOAD)
                ]
            return response

        return build_servers(store, decorator=decorate)

    def test_hint_failure_falls_back_to_local_discovery(self):
        """The hint prefetch dies terminally before the page references
        the URL; the later local reference re-requests it as a non-hint
        and the load completes with the bytes."""
        page = self.chained_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0, hints_only=True)
        )
        metrics = load_page(
            snapshot,
            self.hinted_servers(snapshot, store),
            NetworkConfig(fault_plan=plan, max_retries=0),
            BrowserConfig(when_hours=STAMP.when_hours),
            policy=VroomScheduler(),
        )
        assert metrics.plt > 0
        assert metrics.failed_fetches >= 1
        assert metrics.error_responses >= 1
        # The locally needed script recovered through the fallback path.
        hinted = metrics.timelines[snapshot.find("scriptB").url]
        assert hinted.failed
        assert hinted.fetched_at is not None
        assert hinted.processed_at is not None

    def test_hints_only_plan_spares_unhinted_loads(self):
        """The same plan under a hint-free baseline never rolls a fault."""
        snapshot, store = materialized()
        plan = FaultPlan().with_rule(
            FaultRule(kind=FaultKind.STALL, rate=1.0, hints_only=True)
        )
        plain = faulted_load(snapshot, store, NetworkConfig())
        faulted = faulted_load(
            snapshot,
            store,
            NetworkConfig(
                fault_plan=plan, request_timeout=5.0, max_retries=2
            ),
        )
        assert faulted.plt == plain.plt
        assert faulted.failed_fetches == 0
        assert faulted.timeouts == 0

    def test_failed_parent_writes_off_orphaned_prefetches(self):
        """scriptA dies terminally as a locally needed resource, so the
        execution that would reference scriptB never runs.  scriptB's
        hint prefetch succeeded, but its process obligation must be
        written off with its failed ancestor — the load completes
        instead of wedging on a script that can never be referenced."""
        page = self.chained_page()
        snapshot = page.materialize(STAMP)
        store = record_snapshot(snapshot)
        a_url = snapshot.find("scriptA").url
        plan = FaultPlan().with_rule(
            FaultRule(
                kind=FaultKind.SERVER_ERROR, rate=1.0, url_substring=a_url
            )
        )
        metrics = load_page(
            snapshot,
            self.hinted_servers(snapshot, store),
            NetworkConfig(fault_plan=plan, max_retries=1),
            BrowserConfig(when_hours=STAMP.when_hours),
            policy=VroomScheduler(),
        )
        assert metrics.plt > 0
        assert metrics.timelines[a_url].failed
        orphan = metrics.timelines[snapshot.find("scriptB").url]
        assert orphan.fetched_at is not None
        assert orphan.processed_at is None


class TestFailedDocuments:
    """Hint prefetches of iframe documents that die: the re-fetch gets a
    scanner, an error page is never scanned, and a failed document's
    subresources do not hold onload."""

    @staticmethod
    def framed_page():
        """A long root whose iframe sits at its very end, so Vroom's hint
        prefetch of the iframe starts (and can die) long before the root
        scanner references it."""
        page = PageBlueprint(name="framed", root="root")
        page.add(ResourceSpec("root", ResourceType.HTML, "a.com", 400_000,
                              cacheable=False))
        page.add(ResourceSpec("css", ResourceType.CSS, "a.com", 20_000,
                              parent="root", position=0.05))
        page.add(ResourceSpec("frame", ResourceType.HTML, "a.com", 20_000,
                              parent="root", position=0.98, cacheable=False))
        page.add(ResourceSpec("frame_img", ResourceType.IMAGE, "a.com",
                              50_000, parent="frame", position=0.6))
        page.add(ResourceSpec("frame_js", ResourceType.JS, "a.com", 20_000,
                              parent="frame", position=0.9))
        page.validate()
        return page

    @staticmethod
    def load(page, when_hours, config, plan, resilience):
        from repro.baselines.configs import run_config

        snapshot = page.materialize(LoadStamp(when_hours=when_hours))
        store = record_snapshot(snapshot)
        metrics = run_config(
            config, page, snapshot, store,
            network=NetworkConfig(fault_plan=plan, **asdict(resilience)),
        )
        return snapshot, metrics

    def test_refetched_document_gets_a_scanner(self):
        """The iframe's hint prefetch is dropped; the page's own fetch of
        it must scan its body, or ``frame_img`` is never referenced."""
        plan = FaultPlan(seed=1, rules=(FaultRule(
            kind=FaultKind.CONNECTION_DROP, rate=1.0,
            url_substring="frame.html", hints_only=True,
        ),))
        snapshot, metrics = self.load(
            self.framed_page(), 50.0, "vroom-fair", plan,
            ResiliencePolicy(request_timeout=2.0, max_retries=0),
        )
        assert metrics.connection_drops >= 1
        frame = metrics.timelines[snapshot.find("frame").url]
        assert frame.fetched_at is not None
        image = metrics.timelines[snapshot.find("frame_img").url]
        assert image.rendered_at is not None
        assert image.rendered_at <= metrics.plt

    def test_error_page_is_not_scanned(self):
        """The iframe's hint prefetch draws a 5xx and is not retried; the
        error page's bytes must not fire the scanner's body watches."""
        plan = FaultPlan(seed=1, rules=(FaultRule(
            kind=FaultKind.SERVER_ERROR, rate=1.0,
            url_substring="frame.html", hints_only=True,
        ),))
        snapshot, metrics = self.load(
            self.framed_page(), 50.0, "vroom-no-stage", plan,
            ResiliencePolicy(request_timeout=2.0, max_retries=0),
        )
        assert metrics.plt > 0
        assert metrics.error_responses >= 1
        for name in ("frame_img", "frame_js"):
            timeline = metrics.timelines.get(snapshot.find(name).url)
            assert timeline is None or timeline.discovered_via != "scanner"

    def test_failed_document_abandons_scanned_script(self):
        """``r0``'s scanner finds its synchronous script ``r1`` before
        ``r0`` dies as a locally needed document.  Only ``r0``'s parse
        could run ``r1``, so ``r1`` must not hold onload."""
        page = PageBlueprint(name="c", root="root")
        page.add(ResourceSpec("root", ResourceType.HTML, "fp.com", 152_101,
                              cacheable=False))
        for name, rtype, size, position, cacheable in (
            ("r0", ResourceType.HTML, 6_275, 0.306, False),
            ("r5", ResourceType.HTML, 49_266, 0.325, False),
            ("r4", ResourceType.CSS, 50_462, 0.503, True),
            ("r2", ResourceType.CSS, 32_903, 0.554, True),
        ):
            page.add(ResourceSpec(name, rtype, "fp.com", size, parent="root",
                                  position=position, cacheable=cacheable))
        page.add(ResourceSpec("r1", ResourceType.JS, "fp.com", 43_062,
                              parent="r0", position=0.641))
        page.add(ResourceSpec("r3", ResourceType.IMAGE, "fp.com", 1_006,
                              parent="r0", position=0.697, above_fold=True,
                              pixel_weight=1.0))
        page.validate()
        plan = FaultPlan(seed=73, rules=(FaultRule(
            kind=FaultKind.CONNECTION_DROP, rate=0.3, hints_only=True,
        ),))
        snapshot, metrics = self.load(
            page, 77.0, "vroom-no-stage", plan,
            ResiliencePolicy(max_retries=0),
        )
        assert metrics.plt > 0
        assert metrics.timelines[snapshot.find("r0").url].failed
        script = metrics.timelines[snapshot.find("r1").url]
        assert script.processed_at is None
