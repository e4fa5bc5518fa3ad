"""Cross-device stable-set overlap (paper Fig 9).

The stable set of URLs a page fetches differs across devices because
responsive pages pull different image variants.  The paper compares each
page's Nexus 6 stable set against a Nexus 10 (tablet) and a OnePlus 3
(another phone) via intersection-over-union; phones overlap heavily,
tablets much less — motivating device *equivalence classes* rather than
per-model offline loads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.offline import OfflineResolver
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint


def intersection_over_union(
    page: PageBlueprint,
    stamp: LoadStamp,
    device_a: str,
    device_b: str,
) -> float:
    """IoU of the two devices' stable URL sets for one page."""
    urls = {}
    for device in (device_a, device_b):
        device_stamp = LoadStamp(
            when_hours=stamp.when_hours,
            device=device,
            user=stamp.user,
            nonce=stamp.nonce,
        )
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(
            device_stamp.when_hours, device_stamp.device_class
        )
        urls[device] = set(stable["urls"])
    union = urls[device_a] | urls[device_b]
    if not union:
        return 1.0
    return len(urls[device_a] & urls[device_b]) / len(union)


def iou_distributions(
    pages: Iterable[PageBlueprint],
    stamp: LoadStamp,
    reference: str = "nexus6",
    others: Iterable[str] = ("oneplus3", "nexus10"),
) -> Dict[str, List[float]]:
    """Per-device IoU-vs-reference across a corpus."""
    out: Dict[str, List[float]] = {device: [] for device in others}
    for page in pages:
        for device in out:
            out[device].append(
                intersection_over_union(page, stamp, reference, device)
            )
    return out
