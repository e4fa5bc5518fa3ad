"""Page-type clustering for scalable offline resolution (paper Sec 7).

A site serving thousands of pages cannot afford to load every one of
them hourly.  The paper observes that pages of the same *type* — all
article pages, all category landing pages — share their stable resources
(stylesheets, fonts, logo images, framework JS), and defers exploiting
that to future work.  This module implements it:

1. Cluster a site's pages by the similarity of their stable sets
   (greedy agglomeration over Jaccard similarity, like the device
   equivalence classes of Sec 4.1.2 but across pages).
2. For each cluster, keep hourly offline loads for only a few *probe*
   pages; other member pages reuse the cluster's shared stable core plus
   their own (cheaper, less frequent) page-specific delta.

``ClusteredOfflineResolver`` quantifies the trade: how many hourly loads
are saved, and how much stable-set coverage the reuse gives up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.core.offline import OfflineResolver
from repro.pages.page import PageBlueprint


def stable_name_set(
    page: PageBlueprint, as_of_hours: float, device_class: str = "phone"
) -> Set[str]:
    """Spec names in a page's stable set (names compare across pages of
    the same template; URLs do not)."""
    stable = OfflineResolver(page).stable_set(as_of_hours, device_class)
    return {exemplar["name"] for exemplar in stable["exemplars"].values()}


def _shared_names(a: Set[str], b: Set[str]) -> float:
    """Jaccard similarity over *kind signatures* of spec names.

    Pages generated from the same template share resource roles even when
    concrete names differ (e.g. ``land3_css0`` vs ``land7_css0``), so we
    compare names with their page prefix stripped.
    """
    def strip(names):
        return {name.split("_", 1)[-1] for name in names}

    sa, sb = strip(a), strip(b)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


@dataclass
class PageCluster:
    """One group of same-type pages."""

    probe: PageBlueprint
    members: List[PageBlueprint] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


def cluster_pages(
    pages: Sequence[PageBlueprint],
    as_of_hours: float,
    similarity_threshold: float = 0.5,
) -> List[PageCluster]:
    """Greedy clustering of pages by stable-set similarity.

    The first page of each cluster becomes its probe (the page that keeps
    getting loaded hourly on behalf of the others).
    """
    clusters: List[PageCluster] = []
    signatures: Dict[str, Set[str]] = {}
    for page in pages:
        signatures[page.name] = stable_name_set(page, as_of_hours)
        placed = False
        for cluster in clusters:
            similarity = _shared_names(
                signatures[page.name], signatures[cluster.probe.name]
            )
            if similarity >= similarity_threshold:
                cluster.members.append(page)
                placed = True
                break
        if not placed:
            clusters.append(PageCluster(probe=page, members=[page]))
    return clusters


@dataclass
class ClusterEconomics:
    """What clustering buys and costs."""

    pages: int
    clusters: int
    hourly_loads_without: int
    hourly_loads_with: int
    #: Median fraction of a member page's stable set covered by reusing
    #: the cluster probe's stable roles.
    median_coverage: float

    @property
    def load_reduction(self) -> float:
        if self.hourly_loads_without == 0:
            return 0.0
        return 1.0 - self.hourly_loads_with / self.hourly_loads_without


def evaluate_clustering(
    pages: Sequence[PageBlueprint],
    as_of_hours: float,
    similarity_threshold: float = 0.5,
) -> ClusterEconomics:
    """Cluster ``pages`` and report the offline-load economics."""
    clusters = cluster_pages(pages, as_of_hours, similarity_threshold)
    coverages: List[float] = []
    for cluster in clusters:
        probe_signature = stable_name_set(cluster.probe, as_of_hours)
        for member in cluster.members:
            if member is cluster.probe:
                continue
            member_signature = stable_name_set(member, as_of_hours)
            coverages.append(
                _shared_names(member_signature, probe_signature)
            )
    coverages.sort()
    median_coverage = (
        coverages[len(coverages) // 2] if coverages else 1.0
    )
    return ClusterEconomics(
        pages=len(pages),
        clusters=len(clusters),
        hourly_loads_without=len(pages),
        hourly_loads_with=len(clusters),
        median_coverage=median_coverage,
    )
