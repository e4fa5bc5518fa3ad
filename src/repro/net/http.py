"""HTTP/1.1 and HTTP/2 client transport over the shared access link.

The client owns per-domain transport state: DNS resolution, connection
establishment (TCP + TLS handshakes), request queuing (HTTP/1.1's six
connections per domain) or multiplexing (HTTP/2's single connection), and
HTTP/2 server push.  Response bodies flow through the
:class:`~repro.net.link.AccessLink`; everything before the first body byte
is latency arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.calibration import (
    DNS_LOOKUP_TIME,
    HTTP1_MAX_CONNS_PER_DOMAIN,
    HTTP1_REQUEST_OVERHEAD,
    LTE_DOWNLINK_BPS,
    LTE_RTT,
    LTE_UPLINK_BPS,
    REQUEST_BYTES,
    RESPONSE_HEADER_BYTES,
    HINT_HEADER_BYTES_PER_URL,
    TLS_HANDSHAKE_RTTS,
)
from repro import audit
from repro.net.faults import FaultKind, FaultPlan
from repro.net.link import AccessLink, StreamScheduling
from repro.net.origin import OriginServer, Response
from repro.net.simulator import SimulatorLike


#: Valid :attr:`NetworkConfig.engine` values, the oracle first.
ENGINES = ("reference", "fast")


class HttpVersion(enum.Enum):
    HTTP1 = "http/1.1"
    HTTP2 = "http/2"


@dataclass
class NetworkConfig:
    """Transport knobs for one experiment configuration."""

    version: HttpVersion = HttpVersion.HTTP2
    downlink_bps: float = LTE_DOWNLINK_BPS
    uplink_bps: float = LTE_UPLINK_BPS
    base_rtt: float = LTE_RTT
    use_tls: bool = True
    max_conns_per_domain: int = HTTP1_MAX_CONNS_PER_DOMAIN
    #: Response scheduling within an HTTP/2 connection.  FIFO models the
    #: paper's modified Mahimahi; FAIR is stock interleaving.
    h2_scheduling: StreamScheduling = StreamScheduling.FAIR
    #: Whether servers are allowed to push (they still decide what).
    push_enabled: bool = True
    #: Zero out all latency and shrink handshakes (CPU-bound lower bound).
    zero_latency: bool = False
    #: Per-packet loss probability on the access link (0 = clean).
    loss_rate: float = 0.0
    #: Injected-failure plan, shared with every origin server (None and
    #: an empty plan are both "clean": no rolls happen at all).
    fault_plan: Optional[FaultPlan] = None
    #: Per-attempt deadline from request send to last body byte.
    #: Zero disables timeouts (the historical behaviour).
    request_timeout: float = 0.0
    #: Re-dispatches after a failed attempt before the fetch fails for good.
    max_retries: int = 0
    #: First retry delay in seconds; doubles with each further retry.
    retry_backoff: float = 0.25
    #: Which executor runs the load: ``"fast"`` (the array-backed
    #: :class:`~repro.net.simulator.ArraySimulator`, on which the link
    #: fast-forwards and batches its refresh ticks) or ``"reference"``
    #: (the plain :class:`~repro.net.simulator.Simulator`: one heap event
    #: per callback and per refresh tick).  Both give bit-identical
    #: :class:`~repro.browser.metrics.LoadMetrics`; the reference is the
    #: oracle the fast engine is tested against.
    engine: str = "fast"

    def __post_init__(self) -> None:
        """Reject values the transport cannot simulate, naming the field."""
        checks = (
            ("downlink_bps", self.downlink_bps > 0, "must be positive"),
            ("uplink_bps", self.uplink_bps > 0, "must be positive"),
            ("base_rtt", self.base_rtt >= 0, "must be non-negative"),
            (
                "max_conns_per_domain",
                self.max_conns_per_domain >= 1,
                "must be at least 1",
            ),
            ("loss_rate", 0.0 <= self.loss_rate < 1.0, "must be in [0, 1)"),
            (
                "request_timeout",
                self.request_timeout >= 0,
                "must be non-negative (0 disables timeouts)",
            ),
            ("max_retries", self.max_retries >= 0, "must be non-negative"),
            ("retry_backoff", self.retry_backoff >= 0, "must be non-negative"),
            (
                "engine",
                self.engine in ENGINES,
                f"must be one of {', '.join(ENGINES)}",
            ),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(
                    f"NetworkConfig.{name} {rule}, got {getattr(self, name)!r}"
                )

    def rtt_to(self, server: OriginServer) -> float:
        if self.zero_latency:
            return 0.0
        return self.base_rtt + server.server_rtt


@dataclass
class Fetch:
    """One client-initiated request/response exchange (or a push)."""

    url: str
    domain: str
    priority: float = 1.0
    is_push: bool = False
    #: Speculative hint-driven prefetch (vs. a locally-needed fetch).
    #: Fault plans can target these specifically.
    is_hint: bool = False
    requested_at: float = 0.0
    headers_at: Optional[float] = None
    completed_at: Optional[float] = None
    response: Optional[Response] = None
    #: 1-based attempt counter; each retry re-dispatches with the next one.
    attempt: int = 1
    #: Terminal failure: every attempt (1 + max_retries) was lost.
    failed: bool = False
    on_headers: Optional[Callable[["Fetch"], None]] = None
    on_complete: Optional[Callable[["Fetch"], None]] = None
    #: Invoked exactly once, on terminal failure.
    on_error: Optional[Callable[["Fetch"], None]] = None
    #: Not-yet-fired (body_offset, callback) watch points.  Kept on the
    #: fetch (not just the stream) and re-armed on every response attempt,
    #: so a retry never loses scanner callbacks.
    _body_watches: List = field(default_factory=list)
    _stream = None
    _header_bytes = float(RESPONSE_HEADER_BYTES)
    _timeout_event = None
    _drop_planned = False

    def watch_body_offset(self, offset: float, callback: Callable[[], None]) -> None:
        """Fire ``callback`` when ``offset`` bytes of the *body* arrived."""
        entry = (offset, callback)
        self._body_watches.append(entry)
        stream = self._stream
        if stream is not None:
            stream.watch_offset(*self._stream_watch(entry, stream.bytes_total))

    def _stream_watch(
        self, entry, total: float
    ) -> Tuple[float, Callable[[], None]]:
        """``entry`` as an (offset, callback) watch on a stream of ``total``."""
        offset, callback = entry

        def fire() -> None:
            try:
                self._body_watches.remove(entry)
            except ValueError:
                pass
            callback()

        return min(offset + self._header_bytes, total), fire

    @property
    def in_flight(self) -> bool:
        return self.completed_at is None and not self.failed


class PushedResponse(Fetch):
    """A server-initiated response (HTTP/2 PUSH)."""


class _Connection:
    """One transport connection to a domain."""

    def __init__(self, client: "HttpClient", domain: str):
        self.client = client
        self.domain = domain
        self.ready_at: Optional[float] = None
        scheduling = (
            client.config.h2_scheduling
            if client.config.version is HttpVersion.HTTP2
            else StreamScheduling.FAIR
        )
        rtt = client.config.rtt_to(client.servers[domain])
        self.channel = client.link.open_channel(scheduling, rtt=rtt)
        self.busy = False  # HTTP/1.1: serving a response right now
        self.queue: List[Fetch] = []  # HTTP/1.1 waiting requests


class _DomainState:
    def __init__(self) -> None:
        self.dns_done_at: Optional[float] = None
        self.dns_waiters: List[Callable[[], None]] = []
        self.connections: List[_Connection] = []
        self.pending: List[Fetch] = []  # waiting for a free HTTP/1.1 conn


class HttpClient:
    """The browser's network stack."""

    def __init__(
        self,
        sim: SimulatorLike,
        servers: Dict[str, OriginServer],
        config: Optional[NetworkConfig] = None,
    ):
        self.sim = sim
        self.servers = servers
        self.config = config or NetworkConfig()
        self.link = AccessLink(
            sim, self.config.downlink_bps, loss_rate=self.config.loss_rate
        )
        self._domains: Dict[str, _DomainState] = {}
        #: url -> Fetch for every exchange ever started (including pushes).
        self.fetches: Dict[str, Fetch] = {}
        #: Callback invoked when a push's headers arrive.
        self.on_push: Optional[Callable[[PushedResponse], None]] = None
        #: Tell servers whether a URL is already cached (skip pushing it).
        self.is_cached: Callable[[str], bool] = lambda url: False
        #: Resilience counters, folded into LoadMetrics by the engine.
        self.retries = 0
        self.timeouts = 0
        self.drops = 0
        self.failures = 0
        self.error_responses = 0
        #: Body/header bytes delivered for attempts that ultimately failed
        #: (injected 5xx bodies, partial transfers cut by drops/timeouts).
        self.fault_wasted_bytes = 0.0
        #: Audit state: (domain, weight) -> last completed stream id, for
        #: the per-origin FIFO completion-order invariant.
        self._audit_fifo_last: Dict = {}
        plan = self.config.fault_plan
        if plan is not None and plan.rules:
            for server in servers.values():
                if server.fault_plan is None:
                    server.fault_plan = plan

    # -- public API ----------------------------------------------------------

    def fetch(
        self,
        url: str,
        *,
        priority: float = 1.0,
        is_hint: bool = False,
        on_headers: Optional[Callable[[Fetch], None]] = None,
        on_complete: Optional[Callable[[Fetch], None]] = None,
        on_error: Optional[Callable[[Fetch], None]] = None,
    ) -> Fetch:
        """Request ``url``; duplicate in-flight requests are coalesced."""
        existing = self.fetches.get(url)
        if existing is not None:
            if existing.failed:
                # Callers joining a dead exchange hear about it at once;
                # re-fetching requires forget() first.
                if on_error is not None:
                    self.sim.call_soon(lambda: on_error(existing))
                return existing
            self._attach(existing, on_headers, on_complete)
            return existing
        domain = url.partition("/")[0]
        fetch = Fetch(
            url=url,
            domain=domain,
            priority=priority,
            is_hint=is_hint,
            requested_at=self.sim.now,
            on_headers=on_headers,
            on_complete=on_complete,
            on_error=on_error,
        )
        self.fetches[url] = fetch
        self._after_dns(domain, lambda: self._dispatch(fetch))
        return fetch

    def forget(self, url: str) -> None:
        """Drop a terminally-failed exchange so the URL can be re-fetched."""
        fetch = self.fetches.get(url)
        if fetch is not None and fetch.failed:
            del self.fetches[url]

    def preconnect(self, domain: str) -> None:
        """Resolve DNS and warm a connection to ``domain`` ahead of use.

        Dependency hints tell the client every domain it will fetch from,
        so handshakes can run in parallel with earlier-stage downloads
        instead of serialising at each stage boundary.
        """
        if domain not in self.servers:
            return

        def connect() -> None:
            state = self._domain_state(domain)
            if not state.connections:
                self._new_connection(domain)

        self._after_dns(domain, connect)

    def _attach(
        self,
        fetch: Fetch,
        on_headers: Optional[Callable[[Fetch], None]],
        on_complete: Optional[Callable[[Fetch], None]],
    ) -> None:
        """Join callbacks onto an already-started exchange."""
        if on_headers is not None:
            if fetch.headers_at is not None:
                self.sim.call_soon(lambda: on_headers(fetch))
            else:
                previous = fetch.on_headers
                fetch.on_headers = _chain(previous, on_headers)
        if on_complete is not None:
            if fetch.completed_at is not None:
                self.sim.call_soon(lambda: on_complete(fetch))
            else:
                previous_done = fetch.on_complete
                fetch.on_complete = _chain(previous_done, on_complete)

    # -- DNS -----------------------------------------------------------------

    def _domain_state(self, domain: str) -> _DomainState:
        state = self._domains.get(domain)
        if state is None:
            state = _DomainState()
            self._domains[domain] = state
        return state

    def _after_dns(self, domain: str, proceed: Callable[[], None]) -> None:
        state = self._domain_state(domain)
        if state.dns_done_at is not None and state.dns_done_at <= self.sim.now:
            proceed()
            return
        first_waiter = not state.dns_waiters and state.dns_done_at is None
        state.dns_waiters.append(proceed)
        if first_waiter:
            delay = 0.0 if self.config.zero_latency else DNS_LOOKUP_TIME
            self.sim.schedule_drop(delay, lambda: self._dns_done(domain))

    def _dns_done(self, domain: str) -> None:
        state = self._domain_state(domain)
        state.dns_done_at = self.sim.now
        waiters, state.dns_waiters = state.dns_waiters, []
        for proceed in waiters:
            proceed()

    # -- connections ---------------------------------------------------------

    def _handshake_time(self, server: OriginServer) -> float:
        if self.config.zero_latency:
            return 0.0
        rtt = self.config.rtt_to(server)
        rtts = 1 + (TLS_HANDSHAKE_RTTS if self.config.use_tls else 0)
        return rtts * rtt

    def _new_connection(self, domain: str) -> _Connection:
        server = self.servers[domain]
        conn = _Connection(self, domain)
        conn.ready_at = self.sim.now + self._handshake_time(server)
        self._domain_state(domain).connections.append(conn)
        return conn

    def _dispatch(self, fetch: Fetch) -> None:
        if fetch.domain not in self.servers:
            raise KeyError(f"no origin server for domain {fetch.domain!r}")
        if self.config.version is HttpVersion.HTTP2:
            self._dispatch_h2(fetch)
        else:
            self._dispatch_h1(fetch)

    def _dispatch_h2(self, fetch: Fetch) -> None:
        state = self._domain_state(fetch.domain)
        if not state.connections:
            self._new_connection(fetch.domain)
        conn = state.connections[0]
        start = max(self.sim.now, conn.ready_at or 0.0)
        self.sim.schedule_at(start, lambda: self._send_request(conn, fetch))

    def _dispatch_h1(self, fetch: Fetch) -> None:
        state = self._domain_state(fetch.domain)
        idle = next(
            (
                conn
                for conn in state.connections
                if not conn.busy and not conn.queue
            ),
            None,
        )
        if idle is None and len(state.connections) < self.config.max_conns_per_domain:
            idle = self._new_connection(fetch.domain)
        if idle is None:
            state.pending.append(fetch)
            state.pending.sort(key=lambda item: item.priority)
            return
        idle.busy = True
        start = max(self.sim.now, idle.ready_at or 0.0)
        self.sim.schedule_at(start, lambda: self._send_request(idle, fetch))

    def _h1_connection_free(self, conn: _Connection) -> None:
        conn.busy = False
        state = self._domain_state(conn.domain)
        if state.pending:
            nxt = state.pending.pop(0)
            conn.busy = True
            self.sim.call_soon(lambda: self._send_request(conn, nxt))

    # -- request / response --------------------------------------------------

    def _send_request(self, conn: _Connection, fetch: Fetch) -> None:
        server = self.servers[fetch.domain]
        rtt = self.config.rtt_to(server)
        uplink = (
            0.0
            if self.config.zero_latency
            else REQUEST_BYTES * 8.0 / self.config.uplink_bps
        )
        if (
            self.config.version is HttpVersion.HTTP1
            and not self.config.zero_latency
        ):
            uplink += HTTP1_REQUEST_OVERHEAD
        fault = None
        plan = self.config.fault_plan
        if plan is not None and not fetch.is_push:
            fault = plan.transport_fault(
                fetch.url,
                fetch.domain,
                now=self.sim.now,
                attempt=fetch.attempt,
                is_hint=fetch.is_hint,
            )
        if fault is FaultKind.SLOW_START_RESET:
            # A loss burst collapses the window; the exchange still runs.
            conn.channel.reset_window()
            fault = None
        self._arm_timeout(conn, fetch)
        response = server.respond(
            fetch.url,
            is_push=fetch.is_push,
            now=self.sim.now,
            attempt=fetch.attempt,
            is_hint=fetch.is_hint,
        )
        if response is None:
            raise KeyError(f"{fetch.domain} has no content for {fetch.url!r}")
        fetch.response = response
        if fault is FaultKind.STALL:
            # The response vanishes in the network: nothing arrives, and
            # only the request timeout (if armed) ends the exchange.
            return
        fetch._drop_planned = fault is FaultKind.CONNECTION_DROP
        arrival = uplink + rtt / 2.0 + response.think_time + rtt / 2.0
        if fetch.is_push:
            # A pushed response skips the request leg entirely.
            arrival = response.think_time
        self.sim.schedule_drop(
            arrival, lambda: self._start_response(conn, fetch, response)
        )

    def _start_response(
        self, conn: _Connection, fetch: Fetch, response: Response
    ) -> None:
        header_bytes = RESPONSE_HEADER_BYTES + HINT_HEADER_BYTES_PER_URL * len(
            response.hints
        )
        total = header_bytes + response.size
        fetch._header_bytes = float(header_bytes)
        # Headers first, then the re-armed body watches, then the planned
        # drop: all registered with the stream, so it costs one link poke.
        watches: List[Tuple[float, Callable[[], None]]] = [
            (min(header_bytes, total), lambda: self._headers_arrived(fetch))
        ]
        watches.extend(
            fetch._stream_watch(entry, total) for entry in fetch._body_watches
        )
        if fetch._drop_planned:
            fraction = self.config.fault_plan.drop_fraction(
                fetch.url, fetch.attempt
            )
            drop_at = min(max(1.0, fraction * total), max(0.0, total - 1.0))
            # ``stream`` is bound below, before any watch can fire.
            watches.append(
                (
                    drop_at,
                    lambda: self._connection_dropped(conn, fetch, stream),
                )
            )
        stream = conn.channel.start_stream(
            total,
            on_complete=lambda: self._response_done(conn, fetch),
            weight=1.0 / max(fetch.priority, 0.05),
            watches=watches,
        )
        fetch._stream = stream
        # Server push rides the same connection, after this response starts.
        if (
            self.config.push_enabled
            and not fetch.is_push
            and response.pushes
        ):
            for push_url in response.pushes:
                self._start_push(conn, push_url)

    def _start_push(self, conn: _Connection, url: str) -> None:
        if url in self.fetches or self.is_cached(url):
            return
        server = self.servers[conn.domain]
        push = PushedResponse(
            url=url,
            domain=conn.domain,
            is_push=True,
            requested_at=self.sim.now,
        )
        self.fetches[url] = push
        self.sim.call_soon(lambda: self._send_request(conn, push))

    def _headers_arrived(self, fetch: Fetch) -> None:
        if fetch.headers_at is not None:
            return
        fetch.headers_at = self.sim.now
        if isinstance(fetch, PushedResponse) and self.on_push is not None:
            self.on_push(fetch)
        if fetch.on_headers is not None:
            fetch.on_headers(fetch)

    def _response_done(self, conn: _Connection, fetch: Fetch) -> None:
        if fetch.failed or fetch.completed_at is not None:
            return
        self._cancel_timeout(fetch)
        response = fetch.response
        if response is not None and response.error and not fetch.is_push:
            # Injected 5xx: the body arrived but it isn't the content.
            self.error_responses += 1
            if fetch._stream is not None:
                self.fault_wasted_bytes += fetch._stream.bytes_total
            if self.config.version is HttpVersion.HTTP1:
                self._h1_connection_free(conn)
            self._retry_or_fail(fetch)
            return
        if fetch.headers_at is None:
            self._headers_arrived(fetch)
        fetch.completed_at = self.sim.now
        if audit.ENABLED and fetch._stream is not None:
            audit.fetch_bytes_accounted(
                fetch.url,
                fetch._stream.bytes_total,
                fetch._header_bytes,
                response.size if response is not None else 0.0,
            )
            if (
                self.config.version is HttpVersion.HTTP2
                and self.config.h2_scheduling is StreamScheduling.FIFO
            ):
                audit.fifo_order(
                    self._audit_fifo_last,
                    fetch.domain,
                    fetch._stream.weight,
                    fetch._stream.id,
                )
        if self.config.version is HttpVersion.HTTP1:
            self._h1_connection_free(conn)
        if fetch.on_complete is not None:
            fetch.on_complete(fetch)

    # -- timeouts, faults, retries -------------------------------------------

    def _arm_timeout(self, conn: _Connection, fetch: Fetch) -> None:
        """Per-attempt deadline covering think time and the full body."""
        if fetch.is_push or self.config.request_timeout <= 0:
            return
        fetch._timeout_event = self.sim.schedule(
            self.config.request_timeout, lambda: self._timed_out(conn, fetch)
        )

    def _cancel_timeout(self, fetch: Fetch) -> None:
        if fetch._timeout_event is not None:
            fetch._timeout_event.cancel()
            fetch._timeout_event = None

    def _timed_out(self, conn: _Connection, fetch: Fetch) -> None:
        fetch._timeout_event = None
        if fetch.failed or fetch.completed_at is not None:
            return
        self.timeouts += 1
        stream = fetch._stream
        if stream is not None and not stream.done:
            self.fault_wasted_bytes += stream.bytes_done
        if self.config.version is HttpVersion.HTTP1:
            self._h1_connection_free(conn)
        self._retry_or_fail(fetch)

    def _connection_dropped(
        self, conn: _Connection, fetch: Fetch, stream
    ) -> None:
        if (
            fetch._stream is not stream
            or fetch.failed
            or fetch.completed_at is not None
        ):
            return
        self.drops += 1
        self.fault_wasted_bytes += stream.bytes_done
        self._cancel_timeout(fetch)
        if self.config.version is HttpVersion.HTTP1:
            self._h1_connection_free(conn)
        self._retry_or_fail(fetch)

    def _abort_attempt(self, fetch: Fetch) -> None:
        """Tear down the current attempt's timer and stream, keeping the
        fetch's unfired body watches for the next attempt (if any)."""
        self._cancel_timeout(fetch)
        stream, fetch._stream = fetch._stream, None
        fetch._drop_planned = False
        fetch.response = None
        fetch.headers_at = None
        if stream is not None and not stream.done:
            stream.abort()

    def _retry_or_fail(self, fetch: Fetch) -> None:
        self._abort_attempt(fetch)
        if fetch.attempt > self.config.max_retries:
            fetch.failed = True
            self.failures += 1
            if fetch.on_error is not None:
                handler = fetch.on_error
                self.sim.call_soon(lambda: handler(fetch))
            return
        fetch.attempt += 1
        self.retries += 1
        delay = self.config.retry_backoff * (2.0 ** (fetch.attempt - 2))
        self.sim.schedule_drop(delay, lambda: self._dispatch(fetch))


def _chain(
    first: Optional[Callable[[Fetch], None]],
    second: Callable[[Fetch], None],
) -> Callable[[Fetch], None]:
    def combined(fetch: Fetch) -> None:
        if first is not None:
            first(fetch)
        second(fetch)

    return combined
