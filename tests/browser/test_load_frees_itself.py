"""A finished page load frees itself: it leaves no cyclic garbage.

``load_page`` closes its engine once ``run()`` returns, and each layer
(engine, policy, client, link, simulator) cuts its own back-references,
so reference counting alone frees a load.  The check runs each load with
the collector off and then asks one full collection what it found among
the objects made since: a load that frees itself leaves nothing for it.
"""

import collections
import gc

import pytest

from repro.baselines.configs import CONFIG_NAMES, run_config
from repro.browser.cache import BrowserCache
from repro.browser.engine import BrowserConfig, PageLoadEngine, load_page
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.net.faults import FaultKind, FaultPlan, FaultRule
from repro.net.http import NetworkConfig
from repro.net.profiles import PROFILES
from repro.replay.replayer import build_servers

#: Configurations that build a fresh resource tree per load (the
#: online-only strawman's server load, Polaris's prior load).  The tree
#: is cyclic by design (``Resource.parent`` and ``children``), so these
#: loads may leave garbage, but none of it may be a browser or network
#: object.
PER_LOAD_TREES = ("online-only", "polaris", "hybrid")

FAULTS = NetworkConfig(
    fault_plan=FaultPlan(
        seed=5,
        rules=(
            FaultRule(kind=FaultKind.STALL, rate=0.1),
            FaultRule(kind=FaultKind.CONNECTION_DROP, rate=0.1),
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=0.1),
        ),
    ),
    request_timeout=2.0,
    max_retries=1,
)

NETWORKS = {
    "default": NetworkConfig(),
    "reference": NetworkConfig(engine="reference"),
    "faults": FAULTS,
}


def cyclic_garbage_after(load) -> list:
    """The objects only the cyclic collector would free after ``load()``.

    The collector is off while ``load`` runs, so nothing it leaves is
    collected early, and the load's result is dropped before the one
    full collection that finds them.  Everything alive beforehand is
    frozen: it belongs to the test session, not to the load, so it
    stays out of the count and out of that collection's walk, which
    then costs the load's own objects only.
    """
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        result = load()
        del result
        gc.collect()
        garbage = gc.garbage[:]
        gc.garbage.clear()
        return garbage
    finally:
        gc.set_debug(0)
        gc.unfreeze()
        if enabled:
            gc.enable()


def assert_frees_itself(load) -> None:
    """``load()`` leaves nothing for a full collection to free."""
    garbage = cyclic_garbage_after(load)
    census = collections.Counter(type(obj).__name__ for obj in garbage)
    assert not garbage, census.most_common(8)


def _owner_module(obj) -> str:
    module = type(obj).__module__
    if module == "builtins":
        # Functions and bound methods name the module that defined them.
        module = getattr(obj, "__module__", None) or module
    return module


def model_objects(garbage) -> list:
    """The browser and network objects among ``garbage``."""
    return [
        obj
        for obj in garbage
        if _owner_module(obj).startswith(("repro.browser", "repro.net"))
    ]


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_every_configuration_frees_its_load(
    config, network, page, snapshot, store
):
    def load():
        return run_config(
            config, page, snapshot, store, network=NETWORKS[network]
        )

    if config in PER_LOAD_TREES:
        assert model_objects(cyclic_garbage_after(load)) == []
    else:
        assert_frees_itself(load)


@pytest.mark.parametrize("mode", ["http2", "push-all"])
@pytest.mark.parametrize("profile", ["satellite", "bursty-loss"])
def test_bulk_modes_free_their_loads(mode, profile, page, snapshot, store):
    net = PROFILES[profile].config()
    browser = BrowserConfig(when_hours=snapshot.stamp.when_hours)

    def load():
        if mode == "http2":
            return load_page(snapshot, build_servers(store), net, browser)
        servers = vroom_servers(
            page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
        )
        return load_page(
            snapshot, servers, net, browser, policy=FetchAsapScheduler()
        )

    assert_frees_itself(load)


def test_sampled_load_frees_itself(snapshot, store):
    browser = BrowserConfig(
        when_hours=snapshot.stamp.when_hours, sample_interval=0.05
    )
    metrics = load_page(snapshot, build_servers(store), None, browser)
    assert len(metrics.utilization_trace) > 1
    assert_frees_itself(
        lambda: load_page(snapshot, build_servers(store), None, browser)
    )


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_wedged_load_frees_itself(engine, snapshot, store):
    # The root's response never arrives and nothing times it out, so the
    # load raises; the sampler still has an event pending at the time
    # limit, which the simulator drops when the engine closes.
    stall_root = FaultPlan(
        rules=(
            FaultRule(
                kind=FaultKind.STALL, url_substring=snapshot.root.url
            ),
        )
    )
    net = NetworkConfig(fault_plan=stall_root, engine=engine)
    browser = BrowserConfig(
        when_hours=snapshot.stamp.when_hours, sample_interval=1.0
    )

    def load():
        with pytest.raises(RuntimeError, match="never fired onload"):
            load_page(
                snapshot, build_servers(store), net, browser
            )

    assert_frees_itself(load)


def test_warm_cache_survives_closed_loads(page, snapshot, store):
    cache = BrowserCache()
    run_config("vroom", page, snapshot, store, cache=cache)
    entries = len(cache)
    assert entries > 0
    assert_frees_itself(
        lambda: run_config("vroom", page, snapshot, store, cache=cache)
    )
    assert len(cache) == entries
    # The later load found the first load's entries.
    assert cache.hits > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_closing_changes_no_metric(engine, snapshot, store):
    net = NetworkConfig(engine=engine)
    browser = BrowserConfig(when_hours=snapshot.stamp.when_hours)
    closed = load_page(snapshot, build_servers(store), net, browser)
    kept = PageLoadEngine(snapshot, build_servers(store), net, browser)
    open_metrics = kept.run()
    assert closed == open_metrics
    assert closed.engine_counters == open_metrics.engine_counters
    # An engine nobody closed still answers questions about its load.
    assert kept.client.link.channels
    assert kept.policy.engine is kept


def test_close_releases_every_back_reference(snapshot, store):
    engine = PageLoadEngine(
        snapshot,
        build_servers(store),
        browser_config=BrowserConfig(when_hours=snapshot.stamp.when_hours),
    )
    metrics = engine.run()
    engine.close()
    assert not hasattr(engine.policy, "engine")
    assert engine.client.fetches == {}
    assert engine.client.on_push is None
    assert engine.client.link.channels == []
    assert engine.sim.pending() == 0
    # Counters stay readable after close.
    assert engine.client.link.bytes_delivered == metrics.bytes_fetched
