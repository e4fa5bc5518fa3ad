"""Unit tests for the HTTP/1.1 and HTTP/2 transport layer."""

import pytest

from repro.calibration import HTTP1_MAX_CONNS_PER_DOMAIN
from repro.net.http import HttpClient, HttpVersion, NetworkConfig
from repro.net.link import StreamScheduling
from repro.net.origin import OriginServer, Response
from repro.net.simulator import Simulator


def make_client(
    contents=None,
    version=HttpVersion.HTTP2,
    domains=("a.com",),
    pushes=None,
    hints=None,
    **config_kw,
):
    sim = Simulator()
    contents = contents or {"a.com/x.js": 20_000}
    pushes = pushes or {}
    hints = hints or {}

    def make_responder(domain):
        def respond(url, is_push):
            if url not in contents:
                return None
            return Response(
                url=url,
                size=contents[url],
                think_time=0.01,
                pushes=pushes.get(url, []),
                hints=hints.get(url, []),
            )

        return respond

    servers = {
        domain: OriginServer(domain, make_responder(domain), server_rtt=0.03)
        for domain in domains
    }
    client = HttpClient(
        sim, servers, NetworkConfig(version=version, **config_kw)
    )
    return sim, client, servers


class TestBasics:
    def test_fetch_completes(self):
        sim, client, _ = make_client()
        done = []
        client.fetch("a.com/x.js", on_complete=lambda f: done.append(f))
        sim.run()
        assert len(done) == 1
        assert done[0].completed_at is not None

    def test_headers_before_completion(self):
        sim, client, _ = make_client()
        times = {}
        client.fetch(
            "a.com/x.js",
            on_headers=lambda f: times.setdefault("headers", sim.now),
            on_complete=lambda f: times.setdefault("done", sim.now),
        )
        sim.run()
        assert times["headers"] < times["done"]

    def test_unknown_url_raises(self):
        sim, client, _ = make_client()
        client.fetch("a.com/missing.js")
        with pytest.raises(KeyError):
            sim.run()

    def test_unknown_domain_raises(self):
        sim, client, _ = make_client()
        client.fetch("zzz.com/x.js")
        with pytest.raises(KeyError):
            sim.run()

    def test_duplicate_fetch_coalesced(self):
        sim, client, servers = make_client()
        done = []
        first = client.fetch("a.com/x.js", on_complete=lambda f: done.append(1))
        second = client.fetch("a.com/x.js", on_complete=lambda f: done.append(2))
        assert first is second
        sim.run()
        assert sorted(done) == [1, 2]
        assert servers["a.com"].requests_served == 1

    def test_attach_after_completion_fires_soon(self):
        sim, client, _ = make_client()
        client.fetch("a.com/x.js")
        sim.run()
        late = []
        client.fetch("a.com/x.js", on_complete=lambda f: late.append(sim.now))
        sim.run()
        assert len(late) == 1

    def test_dns_paid_once_per_domain(self):
        sim, client, _ = make_client(
            contents={"a.com/x.js": 1000, "a.com/y.js": 1000}
        )
        start = {}
        client.fetch("a.com/x.js", on_headers=lambda f: start.setdefault("x", sim.now))
        client.fetch("a.com/y.js", on_headers=lambda f: start.setdefault("y", sim.now))
        sim.run()
        # Both waited on one DNS resolution; neither paid it twice.
        assert abs(start["x"] - start["y"]) < 0.05


class TestHttp1:
    def test_connection_limit_queues_requests(self):
        n = HTTP1_MAX_CONNS_PER_DOMAIN + 3
        contents = {f"a.com/r{i}.jpg": 200_000 for i in range(n)}
        sim, client, _ = make_client(contents, version=HttpVersion.HTTP1)
        done = []
        for url in contents:
            client.fetch(url, on_complete=lambda f: done.append(f.url))
        sim.run()
        assert len(done) == n
        state = client._domains["a.com"]
        assert len(state.connections) == HTTP1_MAX_CONNS_PER_DOMAIN

    def test_priority_orders_queued_requests(self):
        n = HTTP1_MAX_CONNS_PER_DOMAIN
        contents = {f"a.com/r{i}.jpg": 400_000 for i in range(n)}
        contents["a.com/low.jpg"] = 1000
        contents["a.com/high.js"] = 1000
        sim, client, _ = make_client(contents, version=HttpVersion.HTTP1)
        done = []
        for i in range(n):
            client.fetch(f"a.com/r{i}.jpg", priority=4.0)
        client.fetch("a.com/low.jpg", priority=5.0,
                     on_complete=lambda f: done.append("low"))
        client.fetch("a.com/high.js", priority=1.0,
                     on_complete=lambda f: done.append("high"))
        sim.run()
        assert done.index("high") < done.index("low")

    def test_h1_slower_than_h2_for_many_small_objects(self):
        contents = {f"a.com/r{i}.js": 15_000 for i in range(30)}
        results = {}
        for version in (HttpVersion.HTTP1, HttpVersion.HTTP2):
            sim, client, _ = make_client(contents, version=version)
            for url in contents:
                client.fetch(url)
            results[version] = sim.run()
        assert results[HttpVersion.HTTP1] > results[HttpVersion.HTTP2]


class TestHttp2:
    def test_single_connection_per_domain(self):
        contents = {f"a.com/r{i}.js": 5000 for i in range(10)}
        sim, client, _ = make_client(contents)
        for url in contents:
            client.fetch(url)
        sim.run()
        assert len(client._domains["a.com"].connections) == 1

    def test_push_delivered_without_request(self):
        contents = {"a.com/page.html": 30_000, "a.com/pushed.js": 10_000}
        sim, client, servers = make_client(
            contents, pushes={"a.com/page.html": ["a.com/pushed.js"]}
        )
        pushed = []
        client.on_push = lambda p: pushed.append(p.url)
        client.fetch("a.com/page.html")
        sim.run()
        assert pushed == ["a.com/pushed.js"]
        assert servers["a.com"].pushes_sent == 1
        assert servers["a.com"].requests_served == 1

    def test_push_skipped_when_cached(self):
        contents = {"a.com/page.html": 30_000, "a.com/pushed.js": 10_000}
        sim, client, servers = make_client(
            contents, pushes={"a.com/page.html": ["a.com/pushed.js"]}
        )
        client.is_cached = lambda url: url == "a.com/pushed.js"
        client.fetch("a.com/page.html")
        sim.run()
        assert servers["a.com"].pushes_sent == 0

    def test_push_disabled_by_config(self):
        contents = {"a.com/page.html": 30_000, "a.com/pushed.js": 10_000}
        sim, client, servers = make_client(
            contents,
            pushes={"a.com/page.html": ["a.com/pushed.js"]},
            push_enabled=False,
        )
        client.fetch("a.com/page.html")
        sim.run()
        assert servers["a.com"].pushes_sent == 0

    def test_preconnect_warms_connection(self):
        sim, client, _ = make_client()
        client.preconnect("a.com")
        started = {}

        def fetch_later():
            client.fetch(
                "a.com/x.js",
                on_headers=lambda f: started.setdefault("t", sim.now),
            )

        sim.schedule(1.0, fetch_later)
        sim.run()
        warm_time = started["t"] - 1.0

        sim2, client2, _ = make_client()
        started2 = {}
        client2.fetch(
            "a.com/x.js",
            on_headers=lambda f: started2.setdefault("t", sim2.now),
        )
        sim2.run()
        assert warm_time < started2["t"]

    def test_preconnect_unknown_domain_is_noop(self):
        sim, client, _ = make_client()
        client.preconnect("unknown.com")
        sim.run()  # must not raise

    def test_fifo_response_ordering(self):
        contents = {"a.com/a.js": 200_000, "a.com/b.js": 200_000}
        sim, client, _ = make_client(
            contents, h2_scheduling=StreamScheduling.FIFO
        )
        done = []
        client.fetch("a.com/a.js", on_complete=lambda f: done.append(("a", sim.now)))
        client.fetch("a.com/b.js", on_complete=lambda f: done.append(("b", sim.now)))
        sim.run()
        assert done[0][0] == "a"
        assert done[0][1] < done[1][1] - 0.05


class TestZeroLatency:
    def test_zero_latency_is_fast(self):
        sim, client, _ = make_client(
            zero_latency=True, downlink_bps=1.0e9
        )
        done = []
        client.fetch("a.com/x.js", on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done[0] < 0.05


class TestBodyWatches:
    def test_watch_body_offset_mid_transfer(self):
        sim, client, _ = make_client({"a.com/big.html": 1_000_000})
        hits = []
        fetch = client.fetch("a.com/big.html")
        fetch.watch_body_offset(500_000, lambda: hits.append(sim.now))
        sim.run()
        assert len(hits) == 1
        assert hits[0] < fetch.completed_at


class TestNetworkConfigValidation:
    """Bad transport knobs fail at construction, naming the field."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("downlink_bps", -1),
            ("uplink_bps", -5),
            ("base_rtt", -0.05),
            ("max_conns_per_domain", 0),
            ("loss_rate", 1.5),
            ("request_timeout", -1),
            ("max_retries", -3),
            ("retry_backoff", -0.25),
            ("engine", "turbo"),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"NetworkConfig.{field} "):
            NetworkConfig(**{field: value})

    def test_accepts_boundary_values(self):
        config = NetworkConfig(
            base_rtt=0.0,
            loss_rate=0.0,
            request_timeout=0.0,
            max_retries=0,
            retry_backoff=0.0,
            max_conns_per_domain=1,
            engine="reference",
        )
        assert config.engine == "reference"
