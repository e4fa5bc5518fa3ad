"""Offline server-side dependency resolution (Sec 4.1.2).

A Vroom-compliant server loads each page it serves once an hour (in our
replay world: resolves the page at past hours under the server's own
identity and a fresh nonce per load).  The *stable set* at any moment is
the set of URLs seen in **all** loads inside the recent window —
intersection filters out nonce URLs and anything that rotated mid-window.

Only the newest load of the window is materialised into a snapshot: its
resources are the stable set's exemplars.  The older loads contribute
nothing but their URL lists, so they are resolved with
:meth:`~repro.pages.page.PageBlueprint.resolve_urls`, which returns the
same list a materialised snapshot's ``urls()`` would.

Device-specific customisation is handled with equivalence classes: the
server loads each page once per device class (phone, tablet, ...) rather
than per device model, using emulation (Sec 4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.calibration import (
    OFFLINE_LOAD_PERIOD_HOURS,
    OFFLINE_WINDOW_LOADS,
)
from repro.pages.dynamics import LoadStamp, stable_nonce
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import Resource

#: Identity used for server-side loads (its cookies are the server's own,
#: never a user's — the whole point of the design).
SERVER_USER = "__vroom_server__"

#: Device model used to emulate each equivalence class.
CLASS_EMULATION_DEVICE = {"phone": "nexus6", "tablet": "nexus10"}


@dataclass
class StableSet:
    """URLs observed in every load of the recent offline window."""

    page: str
    device_class: str
    as_of_hours: float
    urls: Set[str] = field(default_factory=set)
    #: url -> representative Resource from the latest offline load.
    exemplars: Dict[str, Resource] = field(default_factory=dict)

    def __contains__(self, url: str) -> bool:
        return url in self.urls

    def __len__(self) -> int:
        return len(self.urls)


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
        self._cache: Dict[tuple, StableSet] = {}

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

    def prime(self, stable: StableSet) -> None:
        """Install a precomputed stable set into the resolver's cache.

        A hint-serving backend persists stable sets and serves them
        later; priming lets a resolver answer ``stable_set`` queries at
        the set's own ``as_of_hours`` from the *stored* record instead
        of recomputing — which is how the service's accuracy bridge
        replays exactly the hints the store held at lookup time.
        """
        if stable.page != self.page.name:
            raise ValueError(
                f"stable set for {stable.page!r} cannot prime a resolver "
                f"for {self.page.name!r}"
            )
        key = (round(stable.as_of_hours, 6), stable.device_class)
        self._cache[key] = stable

    def trim_cache(self, keep: int = 0) -> int:
        """Drop memoised stable sets, keeping the ``keep`` most recent.

        The memo table is keyed by (rounded hour, device class); a
        long-horizon run resolves at ever-new hours, so without
        trimming the table grows linearly in simulated time for zero
        hit-rate benefit.  Returns the number of entries dropped.
        """
        if keep <= 0:
            dropped = len(self._cache)
            self._cache.clear()
            return dropped
        keys = sorted(self._cache)
        drop = keys[:-keep] if keep < len(keys) else []
        for key in drop:
            del self._cache[key]
        return len(drop)

    def stable_set(
        self, as_of_hours: float, device_class: str = "phone"
    ) -> StableSet:
        """Intersection of the recent offline loads for a device class.

        Only the newest load is materialised: it supplies the exemplars.
        The older loads contribute nothing but their URL lists, which
        :meth:`PageBlueprint.resolve_urls` reads off without building a
        tree.
        """
        key = (round(as_of_hours, 6), device_class)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        *older, newest = self._stamps(as_of_hours, device_class)
        latest = self.page.materialize(newest)
        url_sets = [set(self.page.resolve_urls(stamp)) for stamp in older]
        url_sets.append(set(latest.urls()))
        stable_urls = set.intersection(*url_sets)
        exemplars: Dict[str, Resource] = {}
        for resource in latest.all_resources():
            if resource.url in stable_urls:
                exemplars[resource.url] = resource
        result = StableSet(
            page=self.page.name,
            device_class=device_class,
            as_of_hours=as_of_hours,
            urls=stable_urls,
            exemplars=exemplars,
        )
        self._cache[key] = result
        return result

    def single_prior_load(
        self, as_of_hours: float, device_class: str = "phone"
    ) -> StableSet:
        """Strawman for Fig 17: everything seen in the most recent load."""
        newest = self._stamps(as_of_hours, device_class)[-1]
        latest = self.page.materialize(newest)
        exemplars = {
            resource.url: resource for resource in latest.all_resources()
        }
        return StableSet(
            page=self.page.name,
            device_class=device_class,
            as_of_hours=as_of_hours,
            urls=set(exemplars),
            exemplars=exemplars,
        )


def stable_set_to_dict(stable: StableSet) -> dict:
    """Serialise a stable set (what a production server would persist).

    Each exemplar's spec is read once, and its type's value through the
    member's ``_value_`` slot: ``Resource`` properties and the enum's
    ``value`` descriptor cost more than the rest of the record.
    """
    exemplars = {}
    for url, exemplar in stable.exemplars.items():
        spec = exemplar.spec
        exemplars[url] = {
            "name": spec.name,
            "size": exemplar.size,
            "rtype": spec.rtype._value_,
            "process_order": exemplar.process_order,
        }
    return {
        "page": stable.page,
        "device_class": stable.device_class,
        "as_of_hours": stable.as_of_hours,
        "urls": sorted(stable.urls),
        "exemplars": exemplars,
    }


def stable_set_from_dict(data: dict, page: PageBlueprint) -> StableSet:
    """Rehydrate a persisted stable set against its page blueprint.

    Exemplars are re-resolved from the blueprint's specs: the persisted
    record stores the stable *facts* (URL, name, size, order); the spec
    supplies the behaviourally relevant attributes.
    """
    from repro.pages.resources import Resource

    exemplars = {}
    for url, record in data["exemplars"].items():
        spec = page.specs.get(record["name"])
        if spec is None:
            raise ValueError(
                f"persisted exemplar {record['name']!r} unknown to page "
                f"{page.name!r}"
            )
        resource = Resource(spec=spec, url=url, size=record["size"])
        resource.process_order = record["process_order"]
        exemplars[url] = resource
    return StableSet(
        page=data["page"],
        device_class=data["device_class"],
        as_of_hours=data["as_of_hours"],
        urls=set(data["urls"]),
        exemplars=exemplars,
    )


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
