"""Accuracy of server-side dependency resolution (paper Sec 6.2, Fig 21).

The paper partitions the URLs of any load into a *predictable* and an
*unpredictable* subset: unpredictable URLs are those that differ between
back-to-back loads, and Vroom deliberately leaves them for the client to
discover.  The evaluation universe is "resources derived from HTML minus
those derived from embedded iframes" — what a server could conceivably
return in response to an HTML request.

False negatives = predictable URLs the server failed to identify.
False positives = returned URLs outside the predictable subset.
Both are reported as fractions of the predictable subset's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot


def hintable_universe(snapshot: PageSnapshot) -> List:
    """Resources a server could return for this load's HTML requests.

    Union of every document's hintable descendants (iframe-derived
    content excluded, matching the paper's definition).
    """
    seen = {}
    for doc in snapshot.documents():
        if doc.parent is not None:
            continue  # embedded documents' subtrees are out of scope
        for resource in snapshot.hintable_descendants(doc):
            seen.setdefault(resource.url, resource)
    return list(seen.values())


def predictable_partition(
    page: PageBlueprint, stamp: LoadStamp
) -> Tuple[Set[str], Set[str], PageSnapshot]:
    """(predictable URLs, unpredictable URLs, the load snapshot).

    A URL is predictable iff a back-to-back load (same instant, fresh
    nonce) fetches it too.
    """
    load = page.materialize(stamp)
    universe = {resource.url for resource in hintable_universe(load)}
    b2b_urls = set(page.resolve_urls(stamp.back_to_back()))
    predictable = {url for url in universe if url in b2b_urls}
    return predictable, universe - predictable, load


@dataclass
class AccuracyResult:
    """FP/FN rates for one strategy on one page load."""

    page: str
    strategy: ResolutionStrategy
    predictable_count: int
    false_negatives: int
    false_positives: int

    @property
    def fn_rate(self) -> float:
        if self.predictable_count == 0:
            return 0.0
        return self.false_negatives / self.predictable_count

    @property
    def fp_rate(self) -> float:
        if self.predictable_count == 0:
            return 0.0
        return self.false_positives / self.predictable_count


def returned_urls(
    resolver: VroomResolver, snapshot: PageSnapshot, device_class: str
) -> Set[str]:
    """Everything the servers would return across the load's top-level
    HTML requests (root document; embedded documents' own hints describe
    content the paper excludes from this analysis)."""
    urls: Set[str] = set()
    for doc in snapshot.documents():
        if doc.parent is not None:
            continue
        urls |= resolver.dependency_urls(
            doc,
            as_of_hours=snapshot.stamp.when_hours,
            device_class=device_class,
        )
    return urls


def score_strategy(
    page: PageBlueprint,
    stamp: LoadStamp,
    strategy: ResolutionStrategy,
) -> AccuracyResult:
    """FP/FN of one resolution strategy against one client load."""
    predictable, _unpredictable, load = predictable_partition(page, stamp)
    resolver = VroomResolver(page, strategy=strategy)
    returned = returned_urls(resolver, load, stamp.device_class)
    false_negatives = len(predictable - returned)
    false_positives = len(returned - predictable)
    return AccuracyResult(
        page=page.name,
        strategy=strategy,
        predictable_count=len(predictable),
        false_negatives=false_negatives,
        false_positives=false_positives,
    )


def predictable_share(
    page: PageBlueprint, stamp: LoadStamp
) -> Tuple[float, float]:
    """(count share, byte share) of the predictable subset (Fig 21a)."""
    predictable, unpredictable, load = predictable_partition(page, stamp)
    by_url = load.by_url()
    total = len(predictable) + len(unpredictable)
    if total == 0:
        return 1.0, 1.0
    pred_bytes = sum(by_url[url].size for url in predictable if url in by_url)
    unpred_bytes = sum(
        by_url[url].size for url in unpredictable if url in by_url
    )
    byte_total = pred_bytes + unpred_bytes
    return (
        len(predictable) / total,
        pred_bytes / byte_total if byte_total else 1.0,
    )
