"""End-to-end accuracy bridge: what did serving *that* entry cost?

The service simulation counts hits and staleness; this module asks the
question that matters: **how good were the hints the store actually
held at the instant it served them?**  For a sampled lookup it:

1. Materialises the *client's* load — a real snapshot at the lookup's
   simulated hour, device and user (``pages`` flux included).
2. Reconstructs the hint set the store served: the stored stable-set
   payload is **primed**, as it is, into a
   :class:`~repro.core.resolver.VroomResolver`
   (:meth:`~repro.core.resolver.VroomResolver.prime`), so the resolver
   answers with exactly the record the store held — no recomputation,
   no accidental freshness — and builds from it the hints a Vroom
   server would send.  Online analysis still runs against the live
   body being served, as a real Vroom front end would.
3. Scores that hint set against the load's *predictable partition*
   (:mod:`repro.analysis.accuracy`): precision and recall, next to the
   oracle resolver that computes its offline component fresh at the
   lookup instant.
4. Optionally runs the full :func:`repro.browser.engine.load_page`
   under both hint sets (a cold miss degrades to plain HTTP/2), so the
   staleness cost lands in PLT seconds, not just set overlap.  These
   loads honour ``REPRO_AUDIT=1`` like any other engine load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.accuracy import predictable_partition
from repro.browser.engine import BrowserConfig, load_page
from repro.core.offline import CLASS_EMULATION_DEVICE
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.core.scheduler import VroomScheduler
from repro.core.server import (
    hint_bundles,
    hinted_extra_content,
    make_vroom_decorator,
)
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.replay.cache import SnapshotCache, materialize_cached
from repro.replay.replayer import build_servers


@dataclass(frozen=True, slots=True)
class BridgeSample:
    """One lookup captured for end-to-end evaluation."""

    seq: int
    when_hours: float
    page_index: int
    page: str
    device_class: str
    user: str
    #: Store outcome: "hit" / "stale_hit" / "miss" / "expired".
    status: str
    #: When the served entry's offline resolution ran (None on a miss).
    computed_at_hours: Optional[float]
    #: The exact stored payload served (None on a miss).
    payload: Optional[dict]


def _served_resolver(
    page: PageBlueprint, sample: BridgeSample
) -> Optional[VroomResolver]:
    """A resolver that reproduces the hints the store served, exactly."""
    if sample.payload is None or sample.computed_at_hours is None:
        return None
    resolver = VroomResolver(page)
    resolver.prime(sample.payload)
    return resolver


def _hint_urls(
    resolver: VroomResolver, snapshot, as_of_hours: float, device_class: str
) -> set:
    """Flat hint-URL set across the load's top-level documents."""
    urls: set = set()
    for doc in snapshot.documents():
        if doc.parent is not None:
            continue
        urls |= resolver.dependency_urls(
            doc, as_of_hours=as_of_hours, device_class=device_class
        )
    return urls


def _scored(returned: set, predictable: set) -> dict:
    relevant = len(returned & predictable)
    return {
        "returned": len(returned),
        "predictable": len(predictable),
        "precision": (
            round(relevant / len(returned), 6) if returned else 1.0
        ),
        "recall": (
            round(relevant / len(predictable), 6) if predictable else 1.0
        ),
    }


def _loaded_plt(
    snapshot,
    store,
    resolver: Optional[VroomResolver],
    as_of_hours: float,
    device_class: str,
    browser: BrowserConfig,
) -> float:
    """PLT of a real engine load served with ``resolver``'s hints.

    ``resolver=None`` models the cold-start fallback: plain HTTP/2
    servers, no hints, no push — exactly what a Vroom front end serves
    when the store has nothing.
    """
    if resolver is None:
        servers = build_servers(store)
        config = NetworkConfig()
        return load_page(snapshot, servers, config, browser).plt
    bundles = hint_bundles(
        snapshot,
        resolver,
        as_of_hours=as_of_hours,
        device_class=device_class,
    )
    servers = build_servers(
        store,
        decorator=make_vroom_decorator(bundles),
        extra_content=hinted_extra_content(snapshot, bundles),
    )
    config = NetworkConfig(h2_scheduling=StreamScheduling.FIFO)
    return load_page(
        snapshot, servers, config, browser, policy=VroomScheduler()
    ).plt


def evaluate_sample(
    page: PageBlueprint,
    sample: BridgeSample,
    *,
    with_loads: bool = True,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """Score one sampled lookup end-to-end.

    Returns a dict with the served hint set's precision/recall, the
    oracle's (fresh offline resolution at the lookup instant), and —
    when ``with_loads`` — the PLT under served hints, oracle hints and
    the no-hint fallback.
    """
    device = CLASS_EMULATION_DEVICE[sample.device_class]
    stamp = LoadStamp(
        when_hours=sample.when_hours, device=device, user=sample.user
    )
    snapshot, store = materialize_cached(page, stamp, cache)
    predictable, _unpredictable, load = predictable_partition(page, stamp)

    served = _served_resolver(page, sample)
    oracle = VroomResolver(page, strategy=ResolutionStrategy.VROOM)

    served_urls: set = set()
    if served is not None:
        served_urls = _hint_urls(
            served, load, sample.computed_at_hours, sample.device_class
        )
    oracle_urls = _hint_urls(
        oracle, load, sample.when_hours, sample.device_class
    )

    result = {
        "seq": sample.seq,
        "page": sample.page,
        "status": sample.status,
        "when_hours": round(sample.when_hours, 6),
        "staleness_hours": (
            round(sample.when_hours - sample.computed_at_hours, 6)
            if sample.computed_at_hours is not None
            else None
        ),
        "served": _scored(served_urls, predictable),
        "oracle": _scored(oracle_urls, predictable),
    }
    if with_loads:
        browser = BrowserConfig(
            device=device, user=sample.user, when_hours=sample.when_hours
        )
        result["plt_served"] = round(
            _loaded_plt(
                snapshot,
                store,
                served,
                sample.computed_at_hours
                if sample.computed_at_hours is not None
                else sample.when_hours,
                sample.device_class,
                browser,
            ),
            6,
        )
        result["plt_oracle"] = round(
            _loaded_plt(
                snapshot,
                store,
                oracle,
                sample.when_hours,
                sample.device_class,
                browser,
            ),
            6,
        )
        result["plt_no_hints"] = round(
            _loaded_plt(
                snapshot,
                store,
                None,
                sample.when_hours,
                sample.device_class,
                browser,
            ),
            6,
        )
    return result


def evaluate_samples(
    pages: List[PageBlueprint],
    samples: List[BridgeSample],
    *,
    max_samples: Optional[int] = None,
    with_loads: bool = True,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """Score a run's sampled lookups; aggregate precision/recall.

    ``max_samples`` bounds the (expensive) per-sample work by taking an
    evenly spaced subset, deterministically.
    """
    chosen = list(samples)
    if max_samples is not None and len(chosen) > max_samples > 0:
        step = len(chosen) / max_samples
        chosen = [chosen[int(index * step)] for index in range(max_samples)]
    rows = [
        evaluate_sample(
            pages[sample.page_index],
            sample,
            with_loads=with_loads,
            cache=cache,
        )
        for sample in chosen
    ]
    served_rows = [row for row in rows if row["staleness_hours"] is not None]

    def _mean(values: List[float]) -> float:
        return round(sum(values) / len(values), 6) if values else 0.0

    aggregate = {
        "samples": len(rows),
        "served_samples": len(served_rows),
        "precision_mean": _mean(
            [row["served"]["precision"] for row in served_rows]
        ),
        "recall_mean": _mean([row["served"]["recall"] for row in served_rows]),
        "oracle_precision_mean": _mean(
            [row["oracle"]["precision"] for row in rows]
        ),
        "oracle_recall_mean": _mean([row["oracle"]["recall"] for row in rows]),
        "staleness_hours_mean": _mean(
            [row["staleness_hours"] for row in served_rows]
        ),
    }
    if with_loads and rows:
        aggregate["plt_served_mean"] = _mean(
            [row["plt_served"] for row in rows]
        )
        aggregate["plt_oracle_mean"] = _mean(
            [row["plt_oracle"] for row in rows]
        )
        aggregate["plt_no_hints_mean"] = _mean(
            [row["plt_no_hints"] for row in rows]
        )
    return {"aggregate": aggregate, "rows": rows}
