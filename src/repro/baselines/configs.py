"""Every named configuration the paper's evaluation compares.

``run_config(name, page, snapshot, store, ...)`` loads one page under one
configuration and returns its metrics.  The names:

========================  ====================================================
``http1``                 stock HTTP/1.1 replay ("Loads from Web" proxy)
``http2``                 HTTP/2 everywhere, no push, no hints (the baseline)
``push-all-static``       HTTP/2 + every domain pushes all its static content
``vroom``                 full Vroom: offline+online hints, selective push,
                          FIFO servers, staged client scheduler
``vroom-first-party``     Vroom adopted only by each page's own organisation
``deps-prev-load``        hints = everything in the single most recent load
``offline-only``          hints from the stable set alone
``online-only``           hints from an on-the-fly server load alone
``push-high-pri-no-hints``  selective push, dependency hints disabled
``push-all-no-hints``     push everything local, hints disabled
``push-all-fetch-asap``   full hints + push-all, client fetches on sight
``no-push-no-hints``      alias of ``http2`` (Fig 19's rightmost bar)
``polaris``               client-side dependency-graph prioritisation
``cpu-bound``             Sec 2 CPU-bound lower bound
``network-bound``         Sec 2 network-bound lower bound
``vroom-no-stage``        ablation: Vroom without staged fetching
``vroom-fair``            ablation: Vroom without FIFO response ordering
========================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.lower_bound import cpu_bound_load, network_bound_load
from repro.baselines.polaris import polaris_load
from repro.browser.cache import BrowserCache
from repro.browser.engine import BrowserConfig, FetchPolicy, load_page
from repro.browser.metrics import LoadMetrics
from repro.core.push_policy import PushPolicy
from repro.core.resolver import ResolutionStrategy
from repro.core.scheduler import FetchAsapScheduler, VroomScheduler
from repro.core.server import first_party_domains, vroom_servers
from repro.net.faults import FaultPlan, ResiliencePolicy
from repro.net.http import HttpVersion, NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.replay.replayer import build_servers
from repro.replay.store import ReplayStore


def _plain(version: HttpVersion) -> NetworkConfig:
    return NetworkConfig(version=version)


def run_config(
    name: str,
    page: PageBlueprint,
    snapshot: PageSnapshot,
    store: ReplayStore,
    *,
    cache: Optional[BrowserCache] = None,
    device: str = "nexus6",
    user: str = "user0",
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
    loss_rate: Optional[float] = None,
) -> LoadMetrics:
    """Load ``snapshot`` under the named configuration.

    ``fault_plan``/``resilience`` apply to the transport configurations
    (http1/http2/vroom variants and polaris); the CPU- and network-bound
    lower bounds and the hybrid study build their own transports and run
    fault-free.  Both default to None, which is bit-identical to the
    pre-resilience behaviour.  ``loss_rate`` overrides the link's
    per-packet loss probability (None keeps the default), so sweeps can
    cover lossy links without rebuilding the transport by hand.
    """
    when = snapshot.stamp.when_hours
    browser = BrowserConfig(
        device=device, user=user, when_hours=when, cache=cache
    )

    def _tune(config: NetworkConfig) -> NetworkConfig:
        if fault_plan is not None:
            config.fault_plan = fault_plan
        if resilience is not None:
            config.request_timeout = resilience.request_timeout
            config.max_retries = resilience.max_retries
            config.retry_backoff = resilience.retry_backoff
        if loss_rate is not None:
            config.loss_rate = loss_rate
        return config

    def vroom_cfg(
        strategy=ResolutionStrategy.VROOM,
        push=PushPolicy.HIGH_PRIORITY_LOCAL,
        hints=True,
        adopting=None,
        scheduling=StreamScheduling.FIFO,
        policy_factory: Callable[[], FetchPolicy] = VroomScheduler,
        atf_first=False,
    ) -> LoadMetrics:
        servers = vroom_servers(
            page,
            snapshot,
            store,
            strategy=strategy,
            push_policy=push,
            send_hints=hints,
            adopting_domains=adopting,
            atf_first=atf_first,
        )
        return load_page(
            snapshot,
            servers,
            _tune(NetworkConfig(h2_scheduling=scheduling)),
            browser,
            policy=policy_factory(),
        )

    if name == "http1":
        return load_page(
            snapshot,
            build_servers(store),
            _tune(_plain(HttpVersion.HTTP1)),
            browser,
        )
    if name in ("http2", "no-push-no-hints"):
        return load_page(
            snapshot,
            build_servers(store),
            _tune(_plain(HttpVersion.HTTP2)),
            browser,
        )
    if name == "push-all-static":
        return vroom_cfg(
            push=PushPolicy.ALL_LOCAL,
            hints=False,
            scheduling=StreamScheduling.FAIR,
            policy_factory=FetchPolicy,
        )
    if name == "vroom":
        return vroom_cfg()
    if name == "vroom-first-party":
        return vroom_cfg(adopting=first_party_domains(page))
    if name == "deps-prev-load":
        return vroom_cfg(strategy=ResolutionStrategy.PREV_LOAD)
    if name == "offline-only":
        return vroom_cfg(strategy=ResolutionStrategy.OFFLINE_ONLY)
    if name == "online-only":
        return vroom_cfg(strategy=ResolutionStrategy.ONLINE_ONLY)
    if name == "push-high-pri-no-hints":
        return vroom_cfg(
            hints=False,
            scheduling=StreamScheduling.FAIR,
            policy_factory=FetchPolicy,
        )
    if name == "push-all-no-hints":
        return vroom_cfg(
            push=PushPolicy.ALL_LOCAL,
            hints=False,
            scheduling=StreamScheduling.FAIR,
            policy_factory=FetchPolicy,
        )
    if name == "push-all-fetch-asap":
        return vroom_cfg(
            push=PushPolicy.ALL_LOCAL,
            scheduling=StreamScheduling.FAIR,
            policy_factory=FetchAsapScheduler,
        )
    if name == "vroom-no-stage":
        return vroom_cfg(policy_factory=FetchAsapScheduler)
    if name == "vroom-atf-first":
        return vroom_cfg(atf_first=True)
    if name == "vroom-two-stage":
        from repro.core.scheduler import TwoStageScheduler

        return vroom_cfg(policy_factory=TwoStageScheduler)
    if name == "vroom-fair":
        return vroom_cfg(scheduling=StreamScheduling.FAIR)
    if name == "vroom-no-js-delay":
        return vroom_cfg(
            policy_factory=lambda: VroomScheduler(js_single_thread=False)
        )
    if name == "hybrid":
        from repro.baselines.hybrid import hybrid_load

        return hybrid_load(page, snapshot, store)
    if name == "polaris":
        return polaris_load(
            page,
            snapshot,
            build_servers(store),
            net_config=_tune(
                NetworkConfig(h2_scheduling=StreamScheduling.WEIGHTED)
            ),
        )
    if name == "cpu-bound":
        return cpu_bound_load(
            snapshot, build_servers(store), when_hours=when, device=device
        )
    if name == "network-bound":
        return network_bound_load(
            snapshot, build_servers(store), when_hours=when, device=device
        )
    raise ValueError(f"unknown configuration {name!r}")


CONFIG_NAMES = (
    "http1",
    "http2",
    "push-all-static",
    "vroom",
    "vroom-first-party",
    "deps-prev-load",
    "offline-only",
    "online-only",
    "push-high-pri-no-hints",
    "push-all-no-hints",
    "push-all-fetch-asap",
    "no-push-no-hints",
    "vroom-no-stage",
    "vroom-two-stage",
    "vroom-atf-first",
    "vroom-fair",
    "vroom-no-js-delay",
    "polaris",
    "hybrid",
    "cpu-bound",
    "network-bound",
)
