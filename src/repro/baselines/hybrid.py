"""Vroom + Polaris hybrid (the paper's stated future-work direction).

Sec 6.1: "These results illustrate that combining the complementary
approaches used in VROOM and Polaris is a promising direction of future
work."  Vroom's weakness is the tail — pages with content servers cannot
predict, where clients fall back to plain self-discovery.  Polaris's
strength is exactly there: it uses a prior-load dependency graph to
prioritise *locally discovered* fetches by how much work hangs below
them.

The hybrid keeps Vroom's staged hint prefetching verbatim, but when the
client itself discovers a resource (scanner, parser, script, CSS), the
fetch priority comes from Polaris's chain weights instead of static
type-based classes.  Unpredictable chains therefore drain in
longest-chain-first order while hints cover everything predictable.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.polaris import prior_load_weights
from repro.browser.engine import BrowserConfig, load_page, network_priority
from repro.browser.metrics import LoadMetrics
from repro.core.scheduler import VroomScheduler
from repro.core.server import vroom_servers
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.replay.store import ReplayStore


class HybridScheduler(VroomScheduler):
    """Vroom staging for hints + Polaris chain weights for discoveries."""

    def __init__(
        self, name_weights: Dict[str, float], js_single_thread: bool = True
    ):
        super().__init__(js_single_thread=js_single_thread)
        self.name_weights = name_weights
        self._max_weight = max(name_weights.values(), default=1.0) or 1.0

    def _chain_priority(self, url: str) -> float:
        resource = self.engine.snapshot_urls.get(url)
        base = network_priority(resource)
        if resource is None:
            return base
        weight = self.name_weights.get(resource.name)
        if weight is None:
            return base
        # Longest chains first, scaled into [0.3, 4.3] like Polaris.
        return 0.3 + 4.0 * (1.0 - weight / self._max_weight)

    def on_discovered(self, url: str, via: str) -> None:
        if via == "hint":
            return
        self._request(url, self._chain_priority(url))

    def ensure_fetch(self, url: str) -> None:
        self._request(url, self._chain_priority(url))


def hybrid_load(
    page: PageBlueprint,
    snapshot: PageSnapshot,
    store: ReplayStore,
    net_config: Optional[NetworkConfig] = None,
    browser_config: Optional[BrowserConfig] = None,
    js_single_thread: bool = True,
) -> LoadMetrics:
    """One page load under the hybrid configuration."""
    weights = prior_load_weights(page, snapshot.stamp)
    servers = vroom_servers(page, snapshot, store)
    return load_page(
        snapshot,
        servers,
        net_config or NetworkConfig(h2_scheduling=StreamScheduling.FIFO),
        browser_config or BrowserConfig(when_hours=snapshot.stamp.when_hours),
        policy=HybridScheduler(weights, js_single_thread=js_single_thread),
    )
