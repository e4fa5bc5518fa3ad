"""Resource persistence over time (paper Fig 7).

For each page, the fraction of the current load's resources that were
also present in a load N hours earlier.  The paper measures one hour, one
day and one week; the median page keeps ~70% over an hour and ~50% over a
week.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint

HORIZONS_HOURS: Dict[str, float] = {
    "one_hour": 1.0,
    "one_day": 24.0,
    "one_week": 24.0 * 7,
}


def persistence_fraction(
    page: PageBlueprint, stamp: LoadStamp, horizon_hours: float
) -> float:
    """Share of the current load's URLs present ``horizon_hours`` ago."""
    now_urls = set(page.resolve_urls(stamp))
    past_urls = set(page.resolve_urls(stamp.earlier(horizon_hours)))
    if not now_urls:
        return 1.0
    return len(now_urls & past_urls) / len(now_urls)


def persistence_distributions(
    pages: Iterable[PageBlueprint], stamp: LoadStamp
) -> Dict[str, List[float]]:
    """Per-horizon persistence fractions across a corpus."""
    out: Dict[str, List[float]] = {name: [] for name in HORIZONS_HOURS}
    for page in pages:
        for name, hours in HORIZONS_HOURS.items():
            out[name].append(persistence_fraction(page, stamp, hours))
    return out
