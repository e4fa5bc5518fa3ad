"""The page-load engine: one simulated browser loading one page snapshot.

The engine wires together the network stack, the serial CPU, the incremental
document parsers and a pluggable *fetch policy* (the stock browser fetches
on discovery; Vroom's staged scheduler and Polaris's prioritizer are
policies supplied by other packages).  Its output is a
:class:`~repro.browser.metrics.LoadMetrics` with per-resource timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import audit
from repro.browser.cache import BrowserCache
from repro.browser.cookies import CookieJar
from repro.browser.cpu import CpuProfile, CpuQueue, DEVICE_PROFILES
from repro.browser.metrics import (
    LoadMetrics,
    ResourceTimeline,
    reconstruct_critical_path,
    speed_index,
)
from repro.browser.parser import DocumentParse
from repro.net.http import (
    Fetch,
    HttpClient,
    NetworkConfig,
    PushedResponse,
    chain_callbacks,
)
from repro.net.origin import OriginServer
from repro.net.simulator import ArraySimulator, Simulator, SimulatorLike
from repro.pages.page import PageSnapshot
from repro.pages.resources import PROCESSABLE_TYPES, Resource, ResourceType

#: Network priority by role; lower sorts earlier on HTTP/1.1 queues and
#: weighs heavier in HTTP/2 weighted scheduling.
NET_PRIORITY = {
    "root": 0.5,
    "css": 1.0,
    "sync_js": 1.0,
    "async_js": 2.0,
    "iframe": 3.0,
    "media": 4.0,
    "unreferenced": 5.0,
}


def network_priority(resource: Optional[Resource]) -> float:
    if resource is None:
        return NET_PRIORITY["unreferenced"]
    if resource.parent is None:
        return NET_PRIORITY["root"]
    if resource.rtype is ResourceType.CSS:
        return NET_PRIORITY["css"]
    if resource.rtype is ResourceType.JS:
        return (
            NET_PRIORITY["async_js"]
            if resource.spec.exec_async
            else NET_PRIORITY["sync_js"]
        )
    if resource.is_document:
        return NET_PRIORITY["iframe"]
    return NET_PRIORITY["media"]


class FetchPolicy:
    """Default policy: fetch every resource the moment it is discovered."""

    def attach(self, engine: "PageLoadEngine") -> None:
        self.engine = engine

    def detach(self) -> None:
        """Drop the back-reference :meth:`attach` set (the load is over)."""
        del self.engine

    def on_discovered(self, url: str, via: str) -> None:
        resource = self.engine.snapshot_urls.get(url)
        self.engine.start_fetch(url, priority=network_priority(resource))

    def on_headers(self, fetch: Fetch) -> None:
        """Hook for hint-aware policies; default ignores hints."""

    def on_fetched(self, url: str) -> None:
        """Hook for staged policies; default needs no bookkeeping."""

    def on_fetch_failed(self, url: str) -> None:
        """Hook for resilience-aware policies: ``url``'s fetch died after
        exhausting its retries.  Default needs no bookkeeping."""

    def ensure_fetch(self, url: str) -> None:
        """The parser needs ``url`` right now; make sure it is in flight."""
        resource = self.engine.snapshot_urls.get(url)
        self.engine.start_fetch(url, priority=network_priority(resource))


@dataclass
class BrowserConfig:
    """Client-side knobs for one load."""

    device: str = "nexus6"
    user: str = "user0"
    when_hours: float = 0.0
    cache: Optional[BrowserCache] = None
    #: Multiplier on all CPU costs (0 disables the CPU for the
    #: network-bound lower bound).
    cpu_scale: float = 1.0
    #: Discover every referenced URL at t=0 (network-bound lower bound).
    preknown_urls: bool = False
    #: Latency of a cache hit (disk/service-worker round trip).
    cache_hit_latency: float = 0.002
    #: Polaris-style fine-grained dependency tracking: safe scripts no
    #: longer block the HTML parser and execute on arrival instead.
    nonblocking_scripts: bool = False
    #: If positive, sample (time, cpu_busy, active_streams) at this
    #: interval; the trace lands in ``LoadMetrics.utilization_trace``.
    sample_interval: float = 0.0

    def cpu_profile(self) -> CpuProfile:
        return DEVICE_PROFILES[self.device]


#: Discovery channels that constitute an actual reference by the page.
#: Hint- and push-driven knowledge prefetches bytes but must not evaluate
#: them (Link preload semantics, Sec 3.2): evaluation waits until the page
#: references the resource through one of these channels.
LOCAL_VIAS = frozenset(
    {"navigation", "scanner", "parser", "script", "css", "preknown", "fetch"}
)


@dataclass
class _ResourceState:
    timeline: ResourceTimeline
    resource: Optional[Resource]
    fetch_requested: bool = False
    fetched: bool = False
    processed: bool = False
    decoded: bool = False
    #: Terminal fetch failure while locally needed: waiters were resumed
    #: without the bytes and the resource's obligations are written off.
    failed: bool = False
    #: A speculative hint prefetch died; the next local reference may
    #: re-request the URL through the vanilla discovery path.
    refetch_armed: bool = False
    locally_referenced: bool = False
    _css_queued: bool = False
    _decode_queued: bool = False
    #: Callbacks waiting for the bytes, and for the processed mark; most
    #: resources never get one, so each list is made on first use.
    fetch_waiters: Optional[List[Callable[[], None]]] = None
    process_waiters: Optional[List[Callable[[], None]]] = None


class PageLoadEngine:
    """Simulates one load of a page snapshot and reports metrics."""

    def __init__(
        self,
        snapshot: PageSnapshot,
        servers: Dict[str, OriginServer],
        net_config: Optional[NetworkConfig] = None,
        browser_config: Optional[BrowserConfig] = None,
        policy: Optional[FetchPolicy] = None,
    ):
        self.snapshot = snapshot
        self.snapshot_urls = snapshot.by_url()
        self.net_config = net_config or NetworkConfig()
        # The only thing the engine choice decides: the executor.  Both
        # produce bit-identical metrics (see net/simulator.py).
        self.sim: SimulatorLike = (
            Simulator()
            if self.net_config.engine == "reference"
            else ArraySimulator()
        )
        self.browser_config = browser_config or BrowserConfig()
        self.cpu_profile = self.browser_config.cpu_profile()
        self.cpu = CpuQueue(self.sim)
        self.client = HttpClient(self.sim, servers, self.net_config)
        self.client.on_push = self._push_arrived
        if self.browser_config.cache is not None:
            self.cache = self.browser_config.cache
        else:
            self.cache = BrowserCache()
        self.client.is_cached = lambda url: self.cache.has_fresh(
            url, self.browser_config.when_hours
        )
        self.cookies = CookieJar(self.browser_config.user)
        self.policy = policy or FetchPolicy()
        self.policy.attach(self)

        self._states: Dict[str, _ResourceState] = {}
        self._doc_parses: Dict[str, DocumentParse] = {}
        self._root_parse_done = False
        self._root_parse_done_at: Optional[float] = None
        self._layout_done_at: Optional[float] = None
        self._iframe_parses_started = False
        self.onload_at: Optional[float] = None
        self._render_events: List = []
        self._finished = False
        #: True once any resource has terminally failed; gates the
        #: orphan walk so fault-free loads pay nothing for it.
        self._any_failed = False
        #: URL whose obligation blocked the previous :meth:`_check_done`
        #: scan.  Checking it first turns the (very common) still-blocked
        #: case into O(1); the full scan is a universally-quantified
        #: check, so scan order never changes the outcome.
        self._done_blocker: Optional[str] = None
        self.wasted_bytes = 0.0
        #: Preload-scanner arms, one per document fetch begun (surfaced
        #: in engine_counters under its historical name).
        self._browser_wakeups = 0

    # -- CPU helpers -------------------------------------------------------

    def _cpu_time(self, seconds: float) -> float:
        return seconds * self.browser_config.cpu_scale

    def _submit_cpu(
        self,
        seconds: float,
        on_done: Callable[[], None],
        *,
        low_priority: bool = False,
        band: Optional[int] = None,
    ) -> None:
        self.cpu.submit(
            self._cpu_time(seconds),
            on_done,
            low_priority=low_priority,
            band=band,
        )

    # -- state bookkeeping ---------------------------------------------------

    def state_of(self, url: str) -> _ResourceState:
        state = self._states.get(url)
        if state is None:
            resource = self.snapshot_urls.get(url)
            timeline = ResourceTimeline(
                url=url,
                resource=resource,
                size=resource.size if resource else 0,
                priority=resource.priority if resource else None,
                referenced=resource is not None,
            )
            state = _ResourceState(timeline=timeline, resource=resource)
            self._states[url] = state
        return state

    def timelines(self) -> Dict[str, ResourceTimeline]:
        return {url: state.timeline for url, state in self._states.items()}

    # -- discovery ------------------------------------------------------------

    def discover(self, url: str, via: str, from_url: Optional[str] = None) -> None:
        """Record that the client now knows it needs ``url``.

        The first discovery sets the timeline; a later *local* reference to
        a resource first known through hints/push unlocks its evaluation.
        """
        state = self.state_of(url)
        fresh = state.timeline.discovered_at is None
        if fresh:
            state.timeline.discovered_at = self.sim.now
            state.timeline.discovered_via = via
            state.timeline.discovered_from = from_url
        if via in LOCAL_VIAS and not state.locally_referenced:
            state.locally_referenced = True
            if state.refetch_armed and not state.fetch_requested:
                # An earlier hint prefetch failed terminally; the page now
                # actually references the URL, so fall back to the vanilla
                # fetch-on-discovery path.
                state.refetch_armed = False
                self.policy.on_discovered(url, via)
            if state.fetched and state.resource is not None:
                self._on_resource_available(state.resource)
        if fresh:
            self.policy.on_discovered(url, via)

    # -- fetching ---------------------------------------------------------------

    def start_fetch(self, url: str, priority: float = 1.0) -> None:
        """Begin downloading ``url`` (cache-aware; idempotent)."""
        state = self.state_of(url)
        if state.fetch_requested:
            return
        state.fetch_requested = True
        timeline = state.timeline
        if timeline.discovered_at is None:
            timeline.discovered_at = self.sim.now
            timeline.discovered_via = "fetch"
        timeline.fetch_started_at = self.sim.now
        entry = self.cache.lookup(url, self.browser_config.when_hours)
        if entry is not None:
            timeline.from_cache = True
            self.sim.schedule_drop(
                self.browser_config.cache_hit_latency,
                lambda: self._fetched(url, from_cache=True),
            )
            return
        self.cookies.cookie_for(url.partition("/")[0])
        # A fetch of a URL the page has not referenced yet is a speculative
        # hint prefetch; fault plans can target those specifically.
        is_hint = (
            not state.locally_referenced
            and timeline.discovered_via == "hint"
        )
        fetch = self.client.fetch(
            url,
            priority=priority,
            is_hint=is_hint,
            on_headers=self._headers_arrived,
            on_complete=self._fetch_completed,
            on_error=self._fetch_errored,
        )
        if state.resource is not None and state.resource.is_document:
            self._arm_scanner(state.resource, fetch)

    # The client coalesces fetches by URL, so ``fetch.url`` names the
    # resource every callback of a fetch is about.

    def _fetch_completed(self, fetch: Fetch) -> None:
        self._fetched(fetch.url, fetch=fetch)

    def _fetch_errored(self, fetch: Fetch) -> None:
        self._fetch_failed(fetch.url, fetch)

    def _headers_arrived(self, fetch: Fetch) -> None:
        if fetch.response is not None and fetch.response.error:
            # Injected 5xx headers carry no hints and no usable metadata;
            # the client retries (or fails) the exchange on completion.
            return
        state = self.state_of(fetch.url)
        state.timeline.headers_at = self.sim.now
        self.policy.on_headers(fetch)

    def _fetch_failed(self, url: str, fetch: Fetch) -> None:
        """Terminal transport failure (all retries exhausted) for ``url``.

        A pure hint prefetch degrades gracefully: the load falls back to
        vanilla local discovery, re-requesting the bytes if and when the
        page references the URL.  A locally needed resource instead fails
        like a browser error event — its waiters resume without the bytes
        and its obligations are written off, so onload still fires.
        """
        state = self.state_of(url)
        if state.fetched or state.failed:
            return
        state.timeline.failed = True
        self.client.forget(url)
        locally_needed = (
            state.locally_referenced
            or state.fetch_waiters
            or state.process_waiters
        )
        if locally_needed:
            state.failed = True
            self._any_failed = True
            waiters, state.fetch_waiters = state.fetch_waiters, None
            for callback in waiters or ():
                callback()
            pwaiters, state.process_waiters = state.process_waiters, None
            for callback in pwaiters or ():
                callback()
        else:
            state.fetch_requested = False
            state.refetch_armed = True
        self.policy.on_fetch_failed(url)
        self._check_done()

    def _push_arrived(self, push: PushedResponse) -> None:
        """A pushed response started arriving; treat it as discovery."""
        state = self.state_of(push.url)
        # A request that joined the push in flight already armed it.
        requested, state.fetch_requested = state.fetch_requested, True
        timeline = state.timeline
        timeline.pushed = True
        if timeline.discovered_at is None:
            timeline.discovered_at = self.sim.now
            timeline.discovered_via = "push"
        if timeline.fetch_started_at is None:
            timeline.fetch_started_at = push.requested_at
        push.on_complete = chain_callbacks(
            push.on_complete, self._fetch_completed
        )
        resource = state.resource
        if not requested and resource is not None and resource.is_document:
            self._arm_scanner(resource, push)

    def _fetched(
        self,
        url: str,
        fetch: Optional[Fetch] = None,
        from_cache: bool = False,
    ) -> None:
        state = self.state_of(url)
        if state.fetched:
            return
        state.fetched = True
        timeline = state.timeline
        timeline.fetched_at = self.sim.now
        if timeline.headers_at is None:
            timeline.headers_at = self.sim.now
        resource = state.resource
        if resource is not None and resource.spec.cacheable and not from_cache:
            self.cache.store(
                url,
                resource.size,
                when_hours=self.browser_config.when_hours,
                max_age_hours=resource.spec.max_age_hours,
                cacheable=True,
            )
        if resource is None:
            # Extraneous hint fetch: pure bandwidth waste.
            if fetch is not None and fetch.response is not None:
                self.wasted_bytes += fetch.response.size
            self.policy.on_fetched(url)
            self._check_done()
            return
        self.policy.on_fetched(url)
        waiters, state.fetch_waiters = state.fetch_waiters, None
        for callback in waiters or ():
            callback()
        if from_cache and resource.is_document:
            self._arm_scanner(resource, None)
        self._on_resource_available(resource)
        self._check_done()

    # -- processing ----------------------------------------------------------

    def _on_resource_available(self, resource: Resource) -> None:
        """Kick type-appropriate processing once bytes are local *and* the
        page has actually referenced the resource (preload semantics)."""
        state = self.state_of(resource.url)
        if not state.fetched or not state.locally_referenced:
            return
        if resource.rtype is ResourceType.CSS:
            if not state.processed and not state._css_queued:
                state._css_queued = True
                self._submit_cpu(
                    self.cpu_profile.css_parse_time(resource.size),
                    lambda: self._css_processed(resource),
                )
        elif resource.rtype is ResourceType.JS:
            if self._script_runs_on_reference(resource):
                self._execute_script(resource, lambda: None)
        elif resource.is_document:
            if resource.parent is None:
                self._doc_parses[resource.url].start()
            elif self._root_parse_done:
                self._start_iframe_parse(resource)
        else:
            if not state.decoded and not state._decode_queued:
                state._decode_queued = True
                # Image decode/raster happens off the main thread (Chrome's
                # impl side), so it costs wall time but no renderer CPU.
                self.sim.schedule_drop(
                    self._cpu_time(
                        self.cpu_profile.decode_time(resource.size)
                    ),
                    lambda: self._decoded(resource),
                )

    def _script_runs_on_reference(self, resource: Resource) -> bool:
        """Scripts not driven by a parser position execute once referenced.

        That covers async scripts (referenced by the scanner) and
        script-computed scripts (referenced when their parent executes).
        Synchronous parser-position scripts are executed by the document
        parser at the right moment instead.
        """
        from repro.pages.resources import Discovery

        if resource.spec.exec_async:
            return True
        if self.browser_config.nonblocking_scripts:
            return True
        return resource.spec.discovery is not Discovery.STATIC_MARKUP

    def _execute_script(
        self,
        resource: Resource,
        on_done: Callable[[], None],
        band: Optional[int] = None,
    ) -> None:
        state = self.state_of(resource.url)
        if state.processed:
            on_done()
            return
        if state.failed and not state.fetched:
            # The script never arrived (terminal fetch failure): nothing
            # to execute, and its children stay undiscovered.
            on_done()
            return

        def run() -> None:
            # Children are inserted during (synchronous) execution, so they
            # must exist before the processed mark can trigger onload.
            for child in resource.children:
                self.discover(child.url, via="script", from_url=resource.url)
            self._mark_processed(resource)
            on_done()

        self._submit_cpu(
            self.cpu_profile.js_exec_time(resource.size), run, band=band
        )

    def _css_processed(self, resource: Resource) -> None:
        for child in resource.children:
            self.discover(child.url, via="css", from_url=resource.url)
        self._mark_processed(resource)

    def _mark_processed(self, resource: Resource) -> None:
        state = self.state_of(resource.url)
        if state.processed:
            return
        state.processed = True
        state.timeline.processed_at = self.sim.now
        waiters, state.process_waiters = state.process_waiters, None
        for callback in waiters or ():
            callback()
        self._check_done()

    def _decoded(self, resource: Resource) -> None:
        state = self.state_of(resource.url)
        if state.decoded:
            return
        state.decoded = True
        rendered = self.sim.now
        if self._layout_done_at is not None:
            rendered = max(rendered, self._layout_done_at)
        state.timeline.rendered_at = rendered
        if resource.spec.above_fold and not resource.in_iframe:
            self._render_events.append((rendered, resource.spec.pixel_weight))
        self._check_done()

    # -- document parsing -------------------------------------------------------

    def _build_parse(self, doc: Resource) -> DocumentParse:
        def wait_for_bytes(
            document: Resource, offset: int, callback: Callable[[], None]
        ) -> None:
            # A parse starts only once its document is fetched, and a
            # fetched document stays fetched: its bytes are all here.
            if audit.ENABLED:
                audit.require(
                    self.state_of(document.url).fetched,
                    "parse-after-fetch",
                    f"parse of {document.url!r} waits for byte {offset} "
                    "of a document not yet fetched",
                )
            self.sim.call_soon(callback)

        def wait_for_fetch(
            child: Resource, callback: Callable[[], None]
        ) -> None:
            state = self.state_of(child.url)
            if state.fetched or state.failed:
                self.sim.call_soon(callback)
                return
            self.policy.ensure_fetch(child.url)
            if state.fetch_waiters is None:
                state.fetch_waiters = [callback]
            else:
                state.fetch_waiters.append(callback)

        def wait_for_css(
            sheets: List[Resource], callback: Callable[[], None]
        ) -> None:
            pending = [
                sheet
                for sheet in sheets
                if not self.state_of(sheet.url).processed
                and not self.state_of(sheet.url).failed
            ]
            if not pending:
                self.sim.call_soon(callback)
                return
            remaining = {"count": len(pending)}

            def one_done() -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    callback()

            for sheet in pending:
                self.policy.ensure_fetch(sheet.url)
                state = self.state_of(sheet.url)
                if state.process_waiters is None:
                    state.process_waiters = [one_done]
                else:
                    state.process_waiters.append(one_done)

        from repro.browser.cpu import BAND_PARSER

        def submit_parser_cpu(
            seconds: float, on_done: Callable[[], None]
        ) -> None:
            self._submit_cpu(seconds, on_done, band=BAND_PARSER)

        def execute_parser_script(
            resource: Resource, on_done: Callable[[], None]
        ) -> None:
            self._execute_script(resource, on_done, band=BAND_PARSER)

        on_segment = None
        if doc.parent is None:
            skeleton_weight = max(
                2.0,
                sum(
                    resource.spec.pixel_weight
                    for resource in self.snapshot.all_resources()
                    if resource.spec.above_fold and not resource.in_iframe
                ),
            )

            def paint_progress(length: int, _cursor: int) -> None:
                # Progressive paint: parsed content becomes visible as the
                # parser advances through the document.
                self._render_events.append(
                    (self.sim.now, skeleton_weight * length / doc.size)
                )

            on_segment = paint_progress

        return DocumentParse(
            doc,
            parse_time=self.cpu_profile.html_parse_time,
            submit_cpu=submit_parser_cpu,
            wait_for_bytes=wait_for_bytes,
            wait_for_fetch=wait_for_fetch,
            wait_for_css=wait_for_css,
            execute_script=execute_parser_script,
            on_complete=self._parse_complete,
            nonblocking_scripts=self.browser_config.nonblocking_scripts,
            on_segment=on_segment,
        )

    def _parse_complete(self, parse: DocumentParse) -> None:
        doc = parse.doc
        self._mark_processed(doc)
        if doc.parent is None:
            self._root_parse_done = True
            self._root_parse_done_at = self.sim.now
            self._submit_cpu(self.cpu_profile.layout_time(), self._layout_done)
            self._start_iframe_parses()
        self._check_done()

    def _layout_done(self) -> None:
        self._layout_done_at = self.sim.now
        # Final layout settles whatever the progressive paints left over.
        self._render_events.append((self.sim.now, 2.0))
        self._check_done()

    def _start_iframe_parses(self) -> None:
        if self._iframe_parses_started:
            return
        self._iframe_parses_started = True
        for doc in self.snapshot.documents():
            if doc.parent is None:
                continue
            state = self.state_of(doc.url)
            if state.timeline.discovered_at is None:
                continue
            self.policy.ensure_fetch(doc.url)
            if state.fetched:
                self._start_iframe_parse(doc)
            # else: _on_resource_available starts it after fetch.

    def _start_iframe_parse(self, doc: Resource) -> None:
        parse = self._doc_parses.get(doc.url)
        if parse is None:
            parse = self._build_parse(doc)
            self._doc_parses[doc.url] = parse
        parse.start()

    # -- scanner -------------------------------------------------------------

    def _arm_scanner(self, doc: Resource, fetch: Optional[Fetch]) -> None:
        """Discover ``doc``'s static references as their bytes arrive.

        Runs once per fetch of ``doc``: on ``fetch``'s body as it streams
        in, or (``fetch`` None) all at once from a body the cache has just
        delivered.
        """
        self._browser_wakeups += 1
        for ref in doc.scan.refs:
            child_url = ref.child.url
            if fetch is None:
                self.discover(child_url, via="scanner", from_url=doc.url)
                continue
            fetch.watch_body_offset(
                ref.byte_offset,
                lambda u=child_url: self.discover(
                    u, via="scanner", from_url=doc.url
                ),
            )

    # -- completion ------------------------------------------------------------

    def _orphaned(self, resource) -> bool:
        """True if an ancestor of ``resource`` terminally failed.

        The parse or execution that would reference, run or render it
        never runs, so the resource is abandoned: whether it was hinted,
        pushed or already found by the failed document's scanner, its
        bytes are waste, not obligations."""
        node = resource.parent
        while node is not None:
            state = self._states.get(node.url)
            if state is not None and state.failed:
                return True
            node = node.parent
        return False

    def _check_done(self) -> None:
        """Set ``onload_at`` once no obligation remains.

        This runs after nearly every engine event, so it exits early and
        allocates nothing per call.
        """
        if self.onload_at is not None:
            return
        if not self._root_parse_done or self._layout_done_at is None:
            return
        blocker = self._done_blocker
        if blocker is not None:
            state = self._states.get(blocker)
            if state is not None and self._obligation(blocker, state):
                return
        for url, state in self._states.items():
            if self._obligation(url, state):
                self._done_blocker = url
                return
        self.onload_at = self.sim.now

    def _obligation(self, url: str, state: _ResourceState) -> Optional[str]:
        """The step of ``url`` that still holds onload back, if any:
        ``"fetch"``, ``"parse"``, ``"process"`` or ``"decode"``."""
        resource = state.resource
        if resource is None:
            return None
        if state.timeline.discovered_at is None:
            return None
        if state.failed:
            # Terminal fetch failure: obligations written off.
            return None
        if self._any_failed and self._orphaned(resource):
            return None
        if not state.fetched:
            return "fetch"
        rtype = resource.spec.rtype
        if rtype is ResourceType.HTML:
            parse = self._doc_parses.get(url)
            return "parse" if parse is None or not parse.finished else None
        if rtype in PROCESSABLE_TYPES:
            return None if state.processed else "process"
        return None if state.decoded else "decode"

    # -- driving ----------------------------------------------------------------

    def run(self, time_limit: float = 600.0) -> LoadMetrics:
        """Simulate the load and return metrics.

        Raises ``RuntimeError`` with the outstanding obligations if the
        load wedges (a model bug), rather than reporting bogus numbers.
        """
        root = self.snapshot.root
        self._doc_parses[root.url] = self._build_parse(root)
        if self.browser_config.sample_interval > 0:
            self._samples: List = []
            self._sample()
        self.discover(root.url, via="navigation")
        if self.browser_config.preknown_urls:
            for resource in self.snapshot.all_resources():
                self.discover(resource.url, via="preknown")
        self.sim.run(until=time_limit)
        if self.onload_at is None:
            pending = [
                f"{step}:{url}"
                for url, state in self._states.items()
                if (step := self._obligation(url, state))
            ]
            if not self._root_parse_done:
                pending.insert(0, "root-parse")
            elif self._layout_done_at is None:
                pending.insert(0, "layout")
            raise RuntimeError(
                f"page {self.snapshot.page!r} never fired onload; "
                f"pending={pending[:8]} (of {len(pending)})"
            )
        return self._collect_metrics()

    def _sample(self) -> None:
        """Record (time, cpu_busy, active_streams), then again every
        ``sample_interval`` until onload."""
        self._samples.append(
            (
                self.sim.now,
                self.cpu.busy,
                self.client.link.active_stream_count(),
            )
        )
        if self.onload_at is None:
            self.sim.schedule_drop(
                self.browser_config.sample_interval, self._sample
            )

    def close(self) -> None:
        """Release what this load holds, once its metrics are collected.

        A finished load is otherwise one reference cycle (the policy, the
        client's callbacks, the parses and the link all point back), which
        only the cyclic collector frees.  ``close`` drops the per-URL
        states and the parses, detaches the policy, and closes the client
        and the simulator, each of which cuts its own back-references;
        the engine can then be freed by reference counting alone.  What
        the caller owns stays as it is: the servers, a warm
        :attr:`BrowserConfig.cache` and the policy object.
        """
        self._states = {}
        self._doc_parses = {}
        self.policy.detach()
        self.client.close()
        self.sim.close()

    def _collect_metrics(self) -> LoadMetrics:
        onload = self.onload_at or self.sim.now
        timelines = self.timelines()
        aft = self._compute_aft()
        if audit.ENABLED:
            link = self.client.link
            in_flight = sum(
                stream.bytes_done
                for channel in link.channels
                for stream in channel.streams
                if not stream.done
            )
            audit.bytes_conserved(
                link.bytes_delivered,
                link.bytes_retired + in_flight,
                link.bytes_delivered,
                # The link integrates rate*dt without clamping at stream
                # ends; each boundary crossing can overshoot by a float
                # ulp, so the budget scales with the bytes moved.
                tolerance=max(1.0, 1e-6 * link.bytes_delivered),
            )
        return LoadMetrics(
            page=self.snapshot.page,
            plt=onload,
            aft=aft,
            speed_index=speed_index(self._render_events, aft),
            onload_at=onload,
            cpu_busy_time=self.cpu.busy_time,
            bytes_fetched=self.client.link.bytes_delivered,
            wasted_bytes=self.wasted_bytes,
            retries=self.client.retries,
            timeouts=self.client.timeouts,
            connection_drops=self.client.drops,
            error_responses=self.client.error_responses,
            failed_fetches=self.client.failures,
            fault_wasted_bytes=self.client.fault_wasted_bytes,
            link_busy_time=self.client.link.busy_time,
            link_capacity_bps=self.net_config.downlink_bps,
            timelines=timelines,
            critical_path=reconstruct_critical_path(timelines, onload),
            utilization_trace=getattr(self, "_samples", []),
            engine_counters={
                "events_scheduled": self.sim.events_scheduled,
                "events_executed": self.sim.executed,
                "events_cancelled": self.sim.events_cancelled,
                "heap_compactions": self.sim.compactions,
                "link_pokes": self.client.link.pokes,
                "link_fast_forward_steps": self.client.link.ff_steps,
                "link_rate_recomputes": self.client.link.rate_recomputes,
                "link_wf_fast_hits": self.client.link.wf_fast_hits,
                "browser_wakeups": self._browser_wakeups,
            },
        )

    def _compute_aft(self) -> float:
        if not self._render_events:
            return self.onload_at or self.sim.now
        return max(time for time, _ in self._render_events)


def load_page(
    snapshot: PageSnapshot,
    servers: Dict[str, OriginServer],
    net_config: Optional[NetworkConfig] = None,
    browser_config: Optional[BrowserConfig] = None,
    policy: Optional[FetchPolicy] = None,
) -> LoadMetrics:
    """One-shot convenience wrapper around :class:`PageLoadEngine`: run
    the load, then close the engine so it frees itself."""
    engine = PageLoadEngine(
        snapshot, servers, net_config, browser_config, policy
    )
    try:
        return engine.run()
    finally:
        engine.close()
