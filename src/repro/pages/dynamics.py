"""Temporal and contextual flux of page resources.

This module answers one question: *what URL does a given resource spec
resolve to for a particular load?*  The answer depends on

* wall-clock time (rotating content advances an epoch counter),
* a per-load nonce (intrinsically unpredictable ad/analytics URLs),
* the client's device equivalence class (responsive image variants), and
* the (user, domain) pair (personalised content).

Keeping all of this in pure functions of a :class:`LoadStamp` makes every
experiment deterministic and lets the offline resolver, the accuracy
analysis and the browser all materialise byte-identical loads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.calibration import DEVICE_CLASSES
from repro.pages.resources import ResourceSpec, ResourceType

_EXT_BY_TYPE = {
    ResourceType.HTML: "html",
    ResourceType.CSS: "css",
    ResourceType.JS: "js",
    ResourceType.IMAGE: "jpg",
    ResourceType.FONT: "woff2",
    ResourceType.VIDEO: "mp4",
    ResourceType.JSON: "json",
    ResourceType.OTHER: "bin",
}


@dataclass(frozen=True)
class LoadStamp:
    """Everything that distinguishes one load of a page from another."""

    #: Wall-clock time of the load, in hours since an arbitrary epoch.
    when_hours: float
    #: Device model performing the load (must appear in DEVICE_CLASSES).
    device: str = "nexus6"
    #: User identity (drives personalization); ``server`` for server loads.
    user: str = "user0"
    #: Per-load entropy for intrinsically unpredictable URLs.
    nonce: int = 0

    @property
    def device_class(self) -> str:
        try:
            return DEVICE_CLASSES[self.device]
        except KeyError:
            raise ValueError(f"unknown device {self.device!r}") from None

    def back_to_back(self, nonce_shift: int = 1) -> "LoadStamp":
        """A load at the same instant with fresh nonce entropy."""
        return LoadStamp(
            when_hours=self.when_hours,
            device=self.device,
            user=self.user,
            nonce=self.nonce + nonce_shift,
        )

    def earlier(self, hours: float, nonce_shift: int = 1) -> "LoadStamp":
        """The same context loading the page ``hours`` earlier."""
        return LoadStamp(
            when_hours=self.when_hours - hours,
            device=self.device,
            user=self.user,
            nonce=self.nonce + nonce_shift,
        )


def _digest(*parts: object) -> str:
    joined = "|".join(map(str, parts))
    return hashlib.sha1(joined.encode()).hexdigest()[:10]


def stable_nonce(*parts: object) -> int:
    """A deterministic nonce in ``[0, 100_000)`` from arbitrary parts.

    Unlike builtin ``hash()``, this is independent of ``PYTHONHASHSEED``,
    so server-side emulated loads draw the same nonce in every process.
    """
    return int(_digest(*parts), 16) % 100_000


def rotation_epoch(spec: ResourceSpec, when_hours: float) -> Optional[int]:
    """Epoch index of a rotating resource at a wall-clock time.

    ``None`` for non-rotating resources.  A rotating resource's URL is a
    pure function of its epoch, so two loads within the same epoch see the
    same URL and loads across an epoch boundary see different ones.
    """
    if spec.lifetime_hours is None:
        return None
    if spec.lifetime_hours <= 0:
        raise ValueError(f"{spec.name!r}: non-positive rotation lifetime")
    return int(when_hours // spec.lifetime_hours)


def has_flux(spec: ResourceSpec) -> bool:
    """Whether ``spec``'s URL can differ between stamps.

    :func:`resolve_url` reads the stamp only for a rotating, nonce,
    device-dependent or personalised spec; any other spec resolves to
    the same URL under every stamp.
    """
    return (
        spec.lifetime_hours is not None
        or spec.unpredictable
        or spec.device_dependent
        or spec.personalized
    )


def resolve_url(spec: ResourceSpec, stamp: LoadStamp) -> str:  # repro: hotpath
    """The concrete URL ``spec`` resolves to under ``stamp``.

    Deterministic: identical (spec, stamp) pairs always agree, and two
    stamps differing only in fields irrelevant to the spec (e.g. nonce for
    a stable resource) also agree.  The URL is ``domain/`` followed by
    the spec name and one ``_``-separated token per kind of flux, in this
    order: rotation epoch, nonce digest, device class, personalisation
    digest.
    """
    url = f"{spec.domain}/{spec.name}"
    if spec.lifetime_hours is not None:
        url = f"{url}_e{rotation_epoch(spec, stamp.when_hours)}"
    if spec.unpredictable:
        url = f"{url}_n{_digest(spec.name, stamp.nonce, stamp.when_hours)}"
    if spec.device_dependent:
        url = f"{url}_{stamp.device_class}"
    if spec.personalized:
        url = f"{url}_u{_digest(spec.domain, stamp.user)}"
    return f"{url}.{_EXT_BY_TYPE[spec.rtype]}"


def resolve_size(spec: ResourceSpec, stamp: LoadStamp) -> int:
    """Concrete byte size for this load.

    Device classes with larger displays pull larger image variants; other
    flux leaves size unchanged.  Sizes never go below one byte.
    """
    size = spec.size
    if spec.device_dependent and stamp.device_class == "tablet":
        size = int(size * 1.6)
    return max(1, size)


def url_is_shared(spec: ResourceSpec, a: LoadStamp, b: LoadStamp) -> bool:
    """Whether two loads resolve ``spec`` to the same URL."""
    return resolve_url(spec, a) == resolve_url(spec, b)
