"""A Polaris-style baseline (Netravali et al., NSDI 2016).

Polaris ships the client a fine-grained dependency graph measured from a
prior load and uses it to *reprioritise* requests for critical resources.
As the paper under reproduction stresses (Secs 2 and 6.1), the client still
discovers every resource on its own — fetching a resource, evaluating it,
and only then learning about its children — so chain latency survives;
what improves is the ordering of competing fetches: resources that lead to
longer dependency chains go first.

Our model: build the dependency graph from a prior (1-hour-old) load,
compute each node's downstream chain weight, and use it to assign network
priorities when discovered resources are fetched.  URLs the prior load did
not contain fall back to type-based priorities.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.browser.engine import (
    BrowserConfig,
    FetchPolicy,
    load_page,
    network_priority,
)
from repro.browser.metrics import LoadMetrics
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.net.origin import OriginServer
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import Resource


def chain_weights(snapshot: PageSnapshot) -> Dict[str, float]:
    """URL -> length (in CPU cost) of the longest chain below it."""
    weights: Dict[str, float] = {}

    def weight(resource: Resource) -> float:
        cached = weights.get(resource.url)
        if cached is not None:
            return cached
        own = resource.size if resource.processable else 0
        below = max(
            (weight(child) for child in resource.children), default=0.0
        )
        result = own + below
        weights[resource.url] = result
        return result

    weight(snapshot.root)
    return weights


def prior_load_weights(
    page: PageBlueprint, stamp: LoadStamp, age_hours: float = 1.0
) -> Dict[str, float]:
    """Chain weights measured from a load ``age_hours`` earlier.

    Weights are keyed by *spec name* so they survive URL churn — Polaris's
    graphs capture the page's stable structure, not exact URLs.
    """
    prior = page.materialize(stamp.earlier(age_hours))
    by_url = prior.by_url()
    url_weights = chain_weights(prior)
    return {
        by_url[url].name: value for url, value in url_weights.items()
    }


class PolarisScheduler(FetchPolicy):
    """Fetch-on-discovery with chain-weight-derived priorities."""

    def __init__(self, name_weights: Dict[str, float]):
        self.name_weights = name_weights
        self._max_weight = max(name_weights.values(), default=1.0) or 1.0

    def _priority(self, url: str) -> float:
        resource = self.engine.snapshot_urls.get(url)
        base = network_priority(resource)
        if resource is None:
            return base
        weight = self.name_weights.get(resource.name)
        if weight is None:
            return base
        # Scale into [0.3, 4.3]: heavier chains fetch first.
        return 0.3 + 4.0 * (1.0 - weight / self._max_weight)

    def on_discovered(self, url: str, via: str) -> None:
        self.engine.start_fetch(url, priority=self._priority(url))

    def ensure_fetch(self, url: str) -> None:
        self.engine.start_fetch(url, priority=self._priority(url))


def polaris_load(
    page: PageBlueprint,
    snapshot: PageSnapshot,
    servers: Dict[str, OriginServer],
    net_config: Optional[NetworkConfig] = None,
    browser_config: Optional[BrowserConfig] = None,
) -> LoadMetrics:
    """One page load under the Polaris baseline.

    ``browser_config`` describes the client (device, user, cache); Polaris
    always adds non-blocking scripts to it.
    """
    weights = prior_load_weights(page, snapshot.stamp)
    config = net_config or NetworkConfig(
        h2_scheduling=StreamScheduling.WEIGHTED
    )
    browser = replace(
        browser_config or BrowserConfig(when_hours=snapshot.stamp.when_hours),
        # Scout's fine-grained read/write sets let Polaris evaluate safe
        # scripts without stalling the HTML parser.
        nonblocking_scripts=True,
    )
    return load_page(
        snapshot, servers, config, browser, policy=PolarisScheduler(weights)
    )
