"""Property tests: random small pages load correctly under every policy.

Hypothesis generates miniature page structures (a root document with a
random mix of CSS, sync/async scripts, media, chains and iframes that
carry a script, an image and a stylesheet of their own); every generated
page must load to completion under the stock browser, Vroom and the
fetch-ASAP strawman, with the universal invariants holding, and must
still fire onload when hint prefetches draw server errors, drops or
stalls.  This is the broadest net for scheduling/bookkeeping bugs in the
stack.
"""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.baselines.configs import run_config
from repro.browser.engine import BrowserConfig, load_page
from repro.core.scheduler import FetchAsapScheduler, VroomScheduler
from repro.core.server import vroom_servers
from repro.net.faults import FaultKind, FaultPlan, FaultRule, ResiliencePolicy
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.replayer import build_servers
from tests.browser.test_load_frees_itself import assert_frees_itself

STAMP = LoadStamp(when_hours=77.0)

_child_kind = st.sampled_from(
    ["css", "sync_js", "async_js", "image", "iframe", "chain_js"]
)


@st.composite
def small_pages(draw):
    page = PageBlueprint(name="prop", root="root")
    page.add(
        ResourceSpec(
            name="root",
            rtype=ResourceType.HTML,
            domain="fp.com",
            size=draw(st.integers(min_value=5_000, max_value=40_000)),
        )
    )
    kinds = draw(st.lists(_child_kind, min_size=1, max_size=12))
    last_js = None
    for index, kind in enumerate(kinds):
        name = f"r{index}"
        position = draw(
            st.floats(min_value=0.02, max_value=0.98)
        )
        size = draw(st.integers(min_value=500, max_value=60_000))
        domain = draw(st.sampled_from(["fp.com", "tp1.com", "tp2.com"]))
        if kind == "css":
            page.add(
                ResourceSpec(name, ResourceType.CSS, domain, size,
                             parent="root", position=position)
            )
        elif kind == "sync_js":
            spec = ResourceSpec(name, ResourceType.JS, domain, size,
                                parent="root", position=position)
            page.add(spec)
            last_js = spec
        elif kind == "async_js":
            spec = ResourceSpec(name, ResourceType.JS, domain, size,
                                parent="root", position=position,
                                exec_async=True)
            page.add(spec)
            last_js = spec
        elif kind == "image":
            page.add(
                ResourceSpec(name, ResourceType.IMAGE, domain, size,
                             parent="root", position=position,
                             above_fold=True, pixel_weight=1.0)
            )
        elif kind == "iframe":
            page.add(
                ResourceSpec(name, ResourceType.HTML, domain,
                             max(size, 2_000), parent="root",
                             position=position)
            )
            for suffix, rtype in (
                ("js", ResourceType.JS),
                ("img", ResourceType.IMAGE),
                ("css", ResourceType.CSS),
            ):
                page.add(
                    ResourceSpec(
                        f"{name}_{suffix}", rtype, domain,
                        draw(st.integers(min_value=500, max_value=30_000)),
                        parent=name,
                        position=draw(st.floats(min_value=0.02,
                                                max_value=0.98)),
                    )
                )
        elif kind == "chain_js" and last_js is not None:
            spec = ResourceSpec(
                name, ResourceType.JS, domain, size,
                parent=last_js.name,
                discovery=Discovery.SCRIPT_COMPUTED,
            )
            page.add(spec)
            last_js = spec
    page.validate()
    return page


@given(small_pages())
@settings(max_examples=25, deadline=None)
def test_random_pages_load_under_every_policy(page):
    snapshot = page.materialize(STAMP)
    store = record_snapshot(snapshot)
    browser = BrowserConfig(when_hours=STAMP.when_hours)

    plain = load_page(snapshot, build_servers(store), NetworkConfig(), browser)
    vroom = load_page(
        snapshot,
        vroom_servers(page, snapshot, store),
        NetworkConfig(h2_scheduling=StreamScheduling.FIFO),
        browser,
        policy=VroomScheduler(),
    )
    asap = load_page(
        snapshot,
        vroom_servers(page, snapshot, store),
        NetworkConfig(),
        browser,
        policy=FetchAsapScheduler(),
    )
    for metrics in (plain, vroom, asap):
        assert metrics.plt > 0
        for resource in snapshot.all_resources():
            timeline = metrics.timelines[resource.url]
            assert timeline.fetched_at is not None, resource.name
            if resource.processable:
                assert timeline.processed_at is not None, resource.name
        assert metrics.aft <= metrics.plt + 1e-9


_hint_faults = st.builds(
    lambda kind, rate, seed: FaultPlan(
        seed=seed, rules=(FaultRule(kind=kind, rate=rate, hints_only=True),)
    ),
    st.sampled_from(
        [FaultKind.SERVER_ERROR, FaultKind.CONNECTION_DROP, FaultKind.STALL]
    ),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=1_000),
)


@given(small_pages(), _hint_faults, st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_random_pages_fire_onload_under_hint_faults(page, plan, retries):
    """Dead hint prefetches never wedge a load: the page falls back to
    its own fetches, and a document that dies takes its subresources'
    obligations with it, and the load still frees itself."""
    snapshot = page.materialize(STAMP)
    store = record_snapshot(snapshot)
    network = NetworkConfig(
        fault_plan=plan,
        **asdict(ResiliencePolicy(request_timeout=2.0, max_retries=retries)),
    )
    for config in (
        "http2",
        "vroom",
        "vroom-no-stage",
        "vroom-fair",
        "push-all-fetch-asap",
    ):

        def load():
            metrics = run_config(config, page, snapshot, store, network=network)
            assert metrics.plt > 0, config
            assert metrics.aft <= metrics.plt + 1e-9, config

        # However its fetches died, the load leaves no cyclic garbage.
        assert_frees_itself(load)
