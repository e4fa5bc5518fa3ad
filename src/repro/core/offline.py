"""Offline server-side dependency resolution (Sec 4.1.2).

A Vroom-compliant server loads each page it serves once an hour (in our
replay world: resolves the page at past hours under the server's own
identity and a fresh nonce per load).  The *stable set* at any moment is
the set of URLs seen in **all** loads inside the recent window —
intersection filters out nonce URLs and anything that rotated mid-window.

:meth:`OfflineResolver.stable_set` returns the stable set as the one
record every consumer reads: the Vroom server's hint path
(:class:`~repro.core.resolver.VroomResolver`), the hint service's store
and the accuracy bridge, which primes a resolver with the stored record
as it is.  No tree is built: each load of the window contributes its
URL list from ``PageBlueprint.resolve_urls``, and the newest load's
``PageBlueprint.sized_specs`` supplies each stable URL's spec and size.

Device-specific customisation is handled with equivalence classes: the
server loads each page once per device class (phone, tablet, ...) rather
than per device model, using emulation (Sec 4.1.2).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.calibration import (
    OFFLINE_LOAD_PERIOD_HOURS,
    OFFLINE_WINDOW_LOADS,
)
from repro.pages.dynamics import LoadStamp, stable_nonce
from repro.pages.page import PageBlueprint, PageSnapshot

#: Identity used for server-side loads (its cookies are the server's own,
#: never a user's — the whole point of the design).
SERVER_USER = "__vroom_server__"

#: Device model used to emulate each equivalence class.
CLASS_EMULATION_DEVICE = {"phone": "nexus6", "tablet": "nexus10"}


class OfflineResolver:
    """Periodic offline loads and stable-set computation for one page."""

    def __init__(
        self,
        page: PageBlueprint,
        *,
        period_hours: float = OFFLINE_LOAD_PERIOD_HOURS,
        window_loads: int = OFFLINE_WINDOW_LOADS,
    ):
        if period_hours <= 0:
            raise ValueError("offline load period must be positive")
        if window_loads < 1:
            raise ValueError("window must contain at least one load")
        self.page = page
        self.period_hours = period_hours
        self.window_loads = window_loads

    def _stamps(
        self, as_of_hours: float, device_class: str
    ) -> List[LoadStamp]:
        """The stamps of the window's loads, oldest first.

        Loads happen at the period boundary: for a 1-hour period and a
        3-load window, the loads are at 3, 2 and 1 hours before ``as_of``
        (matching the paper's evaluation, Sec 6.1 methodology).  Each
        draws its nonce from its age, under the server's own identity.
        """
        device = CLASS_EMULATION_DEVICE.get(device_class)
        if device is None:
            raise ValueError(f"unknown device class {device_class!r}")
        return [
            LoadStamp(
                when_hours=as_of_hours - age * self.period_hours,
                device=device,
                user=SERVER_USER,
                nonce=stable_nonce(self.page.name, age),
            )
            for age in range(self.window_loads, 0, -1)
        ]

    def offline_loads(
        self, as_of_hours: float, device_class: str
    ) -> List[PageSnapshot]:
        """The server's own recent loads of the page (at the stamps of
        :meth:`_stamps`), newest last."""
        return [
            self.page.materialize(stamp)
            for stamp in self._stamps(as_of_hours, device_class)
        ]

    def _window_urls(
        self, older: List[LoadStamp], newest_urls: List[str]
    ) -> Set[str]:
        """The URLs every load of the window saw: the older loads at
        ``older`` (oldest first) and the newest load, whose URLs the
        caller has already resolved.  Only the newest load's URLs become
        a set; each older load's list is intersected with it as it is."""
        stable = set(newest_urls)
        for stamp in older:
            stable.intersection_update(self.page.resolve_urls(stamp))
        return stable

    def stable_set(
        self, as_of_hours: float, device_class: str = "phone"
    ) -> dict:
        """The stable set for a device class, as the record a hint
        service stores and a Vroom server's hints read.

        ``urls`` is the sorted intersection of the window's URL lists;
        ``exemplars`` maps each stable URL to the ``name``, ``size``,
        ``rtype`` value and ``process_order`` of its resource in the
        newest load.  No tree is built and nothing is memoised.
        """
        *older, newest = self._stamps(as_of_hours, device_class)
        urls = self.page.resolve_urls(newest)
        return self._record(
            as_of_hours,
            device_class,
            newest,
            urls,
            self._window_urls(older, urls),
        )

    def single_prior_load(
        self, as_of_hours: float, device_class: str = "phone"
    ) -> dict:
        """Strawman for Fig 17: everything seen in the most recent load,
        as a :meth:`stable_set` record."""
        newest = self._stamps(as_of_hours, device_class)[-1]
        urls = self.page.resolve_urls(newest)
        return self._record(
            as_of_hours, device_class, newest, urls, set(urls)
        )

    def _record(
        self,
        as_of_hours: float,
        device_class: str,
        newest: LoadStamp,
        urls: List[str],
        kept: Set[str],
    ) -> dict:
        """The record of the URLs in ``kept``, read off the newest load
        (``urls`` is its URL list) in processing order: a URL two
        resources share takes its key position from the first and its
        fields from the last, and ``process_order`` is the row index."""
        exemplars: Dict[str, dict] = {}
        for order, (spec, size) in enumerate(self.page.sized_specs(newest)):
            url = urls[order]
            if url in kept:
                # ``_value_`` skips the enum's ``value`` descriptor.
                exemplars[url] = {
                    "name": spec.name,
                    "size": size,
                    "rtype": spec.rtype._value_,
                    "process_order": order,
                }
        return {
            "page": self.page.name,
            "device_class": device_class,
            "as_of_hours": as_of_hours,
            "urls": sorted(kept),
            "exemplars": exemplars,
        }


def device_equivalence_classes(
    page: PageBlueprint,
    devices: List[str],
    as_of_hours: float,
    similarity_threshold: float = 0.8,
) -> Dict[str, List[str]]:
    """Bin devices whose stable sets overlap heavily (Sec 4.1.2, Fig 9).

    Returns class-representative -> member devices.  Overlap is measured
    as intersection-over-union of the URLs of one load per device.
    """
    url_sets: Dict[str, Set[str]] = {}
    for device in devices:
        stamp = LoadStamp(
            when_hours=as_of_hours, device=device, user=SERVER_USER
        )
        url_sets[device] = set(page.resolve_urls(stamp))

    classes: Dict[str, List[str]] = {}
    for device in devices:
        placed = False
        for representative in classes:
            union = url_sets[device] | url_sets[representative]
            inter = url_sets[device] & url_sets[representative]
            if union and len(inter) / len(union) >= similarity_threshold:
                classes[representative].append(device)
                placed = True
                break
        if not placed:
            classes[device] = [device]
    return classes
