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
from functools import cached_property
from typing import Iterable, List, Optional, Tuple, cast

from repro.calibration import DEVICE_CLASSES
from repro.pages.resources import ResourceSpec, ResourceType

#: Each type's URL suffix: one string per type, which every URL of
#: that type ends with.
_SUFFIX_BY_TYPE = {
    ResourceType.HTML: ".html",
    ResourceType.CSS: ".css",
    ResourceType.JS: ".js",
    ResourceType.IMAGE: ".jpg",
    ResourceType.FONT: ".woff2",
    ResourceType.VIDEO: ".mp4",
    ResourceType.JSON: ".json",
    ResourceType.OTHER: ".bin",
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

    # The URL tokens below are cached on the stamp, so every flux spec
    # of a load reads them for the cost of one computation.  A failed
    # read caches nothing: an unknown device raises on every read.

    @cached_property
    def device_class(self) -> str:
        try:
            return DEVICE_CLASSES[self.device]
        except KeyError:
            raise ValueError(f"unknown device {self.device!r}") from None

    @cached_property
    def nonce_tail(self) -> str:
        """This load's part of a nonce digest's input: ``|nonce|hour``."""
        return f"|{self.nonce}|{self.when_hours}"

    @cached_property
    def user_tail(self) -> str:
        """This load's part of a personalisation digest's input."""
        return f"|{self.user}"

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


def _digest_of(joined: str) -> str:
    """The digest of parts already joined with ``|``."""
    return hashlib.sha1(joined.encode()).hexdigest()[:10]


def _digest(*parts: object) -> str:
    return _digest_of("|".join(map(str, parts)))


def stable_nonce(*parts: object) -> int:
    """A deterministic nonce in ``[0, 100_000)`` from arbitrary parts.

    Unlike builtin ``hash()``, this is independent of ``PYTHONHASHSEED``,
    so server-side emulated loads draw the same nonce in every process.
    """
    return int(_digest(*parts), 16) % 100_000


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


#: The parts of a spec's URL that no stamp changes, from
#: :func:`url_parts`: the ``domain/name`` head, the rotation lifetime
#: (``None`` if the URL does not rotate), the nonce digest's head
#: (``None`` without a nonce), whether the device class is a token, the
#: personalisation digest's head (``None`` if not personalised) and the
#: type's suffix.
UrlParts = Tuple[str, Optional[float], Optional[str], bool, Optional[str], str]

#: One row of a URL list to fill: its index, then its :data:`UrlParts`.
UrlRow = Tuple[
    int, str, Optional[float], Optional[str], bool, Optional[str], str
]


def url_parts(spec: ResourceSpec) -> UrlParts:
    """The stamp-independent parts of ``spec``'s URL.

    Raises ``ValueError`` for a non-positive rotation lifetime.
    """
    lifetime = spec.lifetime_hours
    if lifetime is not None and lifetime <= 0:
        raise ValueError(f"{spec.name!r}: non-positive rotation lifetime")
    return (
        f"{spec.domain}/{spec.name}",
        lifetime,
        spec.name if spec.unpredictable else None,
        spec.device_dependent,
        spec.domain if spec.personalized else None,
        _SUFFIX_BY_TYPE[spec.rtype],
    )


def fill_urls(
    urls: List[Optional[str]], rows: Iterable[UrlRow], stamp: LoadStamp
) -> None:
    """Set ``urls[row]`` to the URL of each of ``rows`` under ``stamp``.

    The one statement of the URL format: the head, then one token per
    kind of flux in this order, then the suffix.

    * ``_e{epoch}``, the rotation epoch ``int(when_hours // lifetime)``:
      two loads in one epoch see the same URL, loads across an epoch
      boundary different ones;
    * ``_n{digest}``, the nonce digest ``_digest(name, nonce, hour)``;
    * ``_{device_class}``;
    * ``_u{digest}``, the personalisation digest ``_digest(domain, user)``.

    The digests hash the head part joined with the stamp's ``nonce_tail``
    or ``user_tail``, which the stamp computes once per load; an f-string
    formats an ``int``, a ``float`` or a ``str`` exactly as ``str`` does,
    so they equal :func:`_digest` of the parts.  ``stamp.device_class``
    is read only for a device row, so an unknown device raises only when
    such a row is filled.
    """
    when = stamp.when_hours
    for row, url, lifetime, nonce_head, device, user_head, suffix in rows:
        if lifetime is not None:
            url = f"{url}_e{int(when // lifetime)}"
        if nonce_head is not None:
            url = f"{url}_n{_digest_of(nonce_head + stamp.nonce_tail)}"
        if device:
            url = f"{url}_{stamp.device_class}"
        if user_head is not None:
            url = f"{url}_u{_digest_of(user_head + stamp.user_tail)}"
        urls[row] = url + suffix


def resolve_url(spec: ResourceSpec, stamp: LoadStamp) -> str:
    """The concrete URL ``spec`` resolves to under ``stamp``.

    Deterministic: identical (spec, stamp) pairs always agree, and two
    stamps differing only in fields irrelevant to the spec (e.g. nonce for
    a stable resource) also agree.  The format is
    :func:`fill_urls`'s, applied to this one spec.
    """
    urls: List[Optional[str]] = [None]
    fill_urls(urls, [(0, *url_parts(spec))], stamp)
    return cast(str, urls[0])


def resolve_size(spec: ResourceSpec, stamp: LoadStamp) -> int:
    """Concrete byte size for this load.

    Device classes with larger displays pull larger image variants; other
    flux leaves size unchanged.  Sizes never go below one byte.
    """
    size = spec.size
    if spec.device_dependent and stamp.device_class == "tablet":
        size = int(size * 1.6)
    return max(1, size)
