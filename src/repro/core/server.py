"""Vroom-compliant origin servers: replay servers + hints + push.

``vroom_servers`` wraps a recorded page into per-domain origin servers
whose HTML responses carry dependency hints and trigger pushes, per a
:class:`~repro.core.resolver.ResolutionStrategy` and a
:class:`~repro.core.push_policy.PushPolicy`.  Partial-adoption experiments
restrict the behaviour to a subset of domains (Sec 6.1's first-party-only
scenario); every other domain behaves as a plain HTTP/2 server.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.calibration import VROOM_ONLINE_PARSE_OVERHEAD
from repro.core.hints import HintBundle
from repro.core.push_policy import PushPolicy, select_pushes
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.net.origin import OriginServer, Response
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import Resource
from repro.replay.replayer import ResponseDecorator, build_servers
from repro.replay.store import ReplayStore


def first_party_domains(page: PageBlueprint) -> Set[str]:
    """Domains controlled by the page's own organisation."""
    return {f"{page.name}.com"}


def hint_bundles(
    snapshot: PageSnapshot,
    resolver: VroomResolver,
    *,
    as_of_hours: float,
    device_class: str = "phone",
    adopting_domains: Optional[Set[str]] = None,
) -> Dict[str, HintBundle]:
    """Document URL -> the hint bundle its response carries.

    ``adopting_domains`` of ``None`` means universal adoption; documents
    on other domains get no bundle.  Hints depend only on the snapshot
    and the offline database, not on request timing, so each document's
    bundle is computed once per load and every consumer reads it.
    """
    return {
        doc.url: resolver.hints_for(
            doc, as_of_hours=as_of_hours, device_class=device_class
        )
        for doc in snapshot.documents()
        if adopting_domains is None or doc.domain in adopting_domains
    }


def make_vroom_decorator(
    bundles: Dict[str, HintBundle],
    *,
    strategy: ResolutionStrategy = ResolutionStrategy.VROOM,
    push_policy: PushPolicy = PushPolicy.HIGH_PRIORITY_LOCAL,
    send_hints: bool = True,
) -> ResponseDecorator:
    """Response decorator adding ``bundles``' hints and pushes to HTML
    responses (see :func:`hint_bundles`)."""
    uses_online = strategy in (
        ResolutionStrategy.VROOM,
        ResolutionStrategy.ONLINE_ONLY,
    )

    def decorate(
        resource: Resource, response: Response, is_push: bool
    ) -> Response:
        if not resource.is_document or is_push:
            return response
        bundle = bundles.get(resource.url)
        if bundle is None:
            return response
        if send_hints:
            response.hints = list(bundle)
        response.pushes = select_pushes(push_policy, bundle, resource.domain)
        if uses_online:
            response.think_time += VROOM_ONLINE_PARSE_OVERHEAD
        return response

    return decorate


def hinted_extra_content(
    snapshot: PageSnapshot, bundles: Dict[str, HintBundle]
) -> Dict[str, int]:
    """Body sizes for hinted URLs absent from this load.

    Server false positives (stale offline entries, the online-only
    strawman's own nonce URLs) are fetched by the client even though the
    page never references them; origin servers must have *something* to
    return.  Sizes come from the hints' own size estimates, floored at
    600 bytes; :func:`~repro.replay.replayer.build_servers` serves them
    as plain responses.
    """
    known = set(snapshot.urls())
    extra: Dict[str, int] = {}
    for bundle in bundles.values():
        for hint in bundle:
            if hint.url in known or hint.url in extra:
                continue
            extra[hint.url] = max(hint.size_estimate, 600)
    return extra


def vroom_servers(
    page: PageBlueprint,
    snapshot: PageSnapshot,
    store: ReplayStore,
    *,
    strategy: ResolutionStrategy = ResolutionStrategy.VROOM,
    push_policy: PushPolicy = PushPolicy.HIGH_PRIORITY_LOCAL,
    send_hints: bool = True,
    adopting_domains: Optional[Set[str]] = None,
    atf_first: bool = False,
) -> Dict[str, OriginServer]:
    """Per-domain servers implementing the chosen Vroom configuration."""
    resolver = VroomResolver(page, strategy=strategy, atf_first=atf_first)
    bundles = hint_bundles(
        snapshot,
        resolver,
        as_of_hours=snapshot.stamp.when_hours,
        adopting_domains=adopting_domains,
    )
    decorator = make_vroom_decorator(
        bundles,
        strategy=strategy,
        push_policy=push_policy,
        send_hints=send_hints,
    )
    return build_servers(
        store,
        decorator=decorator,
        extra_content=hinted_extra_content(snapshot, bundles),
    )
