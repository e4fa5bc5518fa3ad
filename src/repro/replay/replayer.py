"""Replaying: turn a ReplayStore into per-domain origin servers.

A *response decorator* lets policy layers (Vroom, push strawmen) enrich
plain recorded responses with dependency hints, push lists and extra server
think time without re-implementing the transport.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.calibration import SERVER_HTML_THINK_TIME, SERVER_THINK_TIME
from repro.net.origin import OriginServer, Response
from repro.pages.resources import Resource
from repro.replay.store import ReplayStore

#: Decorator signature: may mutate/replace the Response for an exchange.
ResponseDecorator = Callable[[Resource, Response, bool], Response]


def _plain_response(resource: Resource) -> Response:
    spec = resource.spec
    think = spec.server_think_time
    if think is None:
        think = (
            SERVER_HTML_THINK_TIME if resource.is_document else SERVER_THINK_TIME
        )
    return Response(
        url=resource.url,
        size=resource.size,
        think_time=think,
        meta=resource,
        cacheable=spec.cacheable,
    )


def _extra_response(url: str, size: int) -> Response:
    """A plain response for a URL outside the recording: no resource
    behind it, so the think time follows the URL's ``.html`` suffix."""
    html = url.endswith(".html")
    return Response(
        url=url,
        size=size,
        think_time=SERVER_HTML_THINK_TIME if html else SERVER_THINK_TIME,
    )


def build_servers(
    store: ReplayStore,
    decorator: Optional[ResponseDecorator] = None,
    extra_content: Optional[Dict[str, int]] = None,
) -> Dict[str, OriginServer]:
    """One OriginServer per recorded domain.

    ``decorator`` sees every recorded exchange.  ``extra_content`` (URL
    -> body size) lets a policy layer serve URLs beyond the recorded set
    (e.g. stale offline-resolved dependencies that a client is hinted to
    fetch even though this load does not reference them); those are
    served plain and undecorated.
    """
    extra_content = extra_content or {}

    def make_responder(domain: str):
        def respond(url: str, is_push: bool) -> Optional[Response]:
            resource = store.lookup(url)
            if resource is None:
                size = extra_content.get(url)
                if size is None or url.partition("/")[0] != domain:
                    return None
                return _extra_response(url, size)
            if resource.domain != domain:
                return None
            response = _plain_response(resource)
            if decorator is not None:
                response = decorator(resource, response, is_push)
            return response

        return respond

    servers: Dict[str, OriginServer] = {}
    domains = set(store.domains())
    domains.update(url.partition("/")[0] for url in extra_content)
    # Sorted so the server map (and everything downstream that iterates
    # it) is identical across PYTHONHASHSEED values.
    for domain in sorted(domains):
        rtt = store.domain_rtts.get(domain)
        if rtt is None:
            from repro.replay.recorder import domain_rtt

            rtt = domain_rtt(domain)
        servers[domain] = OriginServer(
            domain, make_responder(domain), server_rtt=rtt
        )
    return servers
