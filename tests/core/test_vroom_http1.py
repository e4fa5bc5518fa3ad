"""Vroom's hint mechanism over HTTP/1.1 (the high-loss fallback).

HTTP/1.1 has no server push, so Vroom degrades to dependency hints plus
the staged scheduler — Sec 8 notes this combination still works.  These
tests pin the semantics of that degraded mode: ``vroom-http1``.
"""

from unittest import mock

from repro.baselines.configs import run_config
from repro.browser.engine import PageLoadEngine
from repro.net.http import HttpVersion


def h1_vroom_engine(page, snapshot, store):
    """The engine ``run_config("vroom-http1")`` ran, after its load."""
    engines = []
    run = PageLoadEngine.run

    def keep(engine):
        engines.append(engine)
        return run(engine)

    with mock.patch.object(PageLoadEngine, "run", keep):
        run_config("vroom-http1", page, snapshot, store)
    (engine,) = engines
    return engine


class TestVroomOverHttp1:
    def test_load_completes(self, page, snapshot, store):
        metrics = run_config("vroom-http1", page, snapshot, store)
        assert metrics.plt > 0

    def test_no_pushes_happen(self, page, snapshot, store):
        engine = h1_vroom_engine(page, snapshot, store)
        assert engine.client.config.version is HttpVersion.HTTP1
        assert all(
            server.pushes_sent == 0
            for server in engine.client.servers.values()
        )

    def test_hints_still_drive_early_discovery(self, page, snapshot, store):
        vroom = run_config("vroom-http1", page, snapshot, store)
        plain = run_config("http1", page, snapshot, store)
        assert vroom.discovery_complete_at() < plain.discovery_complete_at()

    def test_beats_plain_http1(self, page, snapshot, store):
        vroom = run_config("vroom-http1", page, snapshot, store)
        plain = run_config("http1", page, snapshot, store)
        assert vroom.plt < plain.plt

    def test_connection_limit_respected(self, page, snapshot, store):
        """Prefetch storms must still obey six connections per domain."""
        engine = h1_vroom_engine(page, snapshot, store)
        for domain, state in engine.client._domains.items():
            assert len(state.connections) <= 6, domain
