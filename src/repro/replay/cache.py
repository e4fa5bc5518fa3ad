"""Content-addressed cache of materialised snapshots and recorded stores.

``PageBlueprint.materialize`` and ``record_snapshot`` are pure functions of
(blueprint, stamp): identical inputs always produce byte-identical
snapshots and stores.  Every figure bench and sweep re-derives the same
snapshots, so a session-wide cache keyed on a *content fingerprint* of the
blueprint plus the stamp lets all configurations — and all benchmarks in a
process — share one snapshot/store pair per (page, stamp).

The key is content-addressed rather than identity-based: two blueprint
objects with identical structure hit the same entry, and any change to any
spec field changes the fingerprint.  Cached ``(PageSnapshot, ReplayStore)``
pairs are plain dataclass trees, so they pickle cleanly to worker
processes (the parallel sweep engine ships prebuilt stores instead of
having each worker re-record them).

A cache also keeps the loads run on its snapshots, for the load matrix
(:func:`repro.experiments.parallel.load_matrix`) to share: one load per
(content key, configuration, load options), at most
:data:`SHARED_LOADS` of them.  A private cache shares neither snapshots
nor loads with the session's.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.replay.recorder import record_snapshot
from repro.replay.store import ReplayStore


#: Most loads one cache keeps for sharing, least recently used out first.
#: The paper-figure session makes 750 distinct loads.
SHARED_LOADS = 1024


def blueprint_fingerprint(page: PageBlueprint) -> str:
    """Stable content hash of a blueprint's full structure.

    Covers the page name, root, the spec-map keys, and every field of
    every spec, so any structural edit — size, domain, flux flags,
    parentage, or re-keying the spec map — produces a different
    fingerprint while identically-built blueprints collide (which is
    exactly what a content-addressed cache wants).

    Every component is length-prefixed before hashing, so no value can
    bleed into its neighbour (``("ab", "c")`` vs ``("a", "bc")``) and no
    field boundary depends on the values containing no delimiters.
    """
    digest = hashlib.sha256()

    def put(text: str) -> None:
        data = text.encode()
        digest.update(str(len(data)).encode())
        digest.update(b":")
        digest.update(data)

    put(page.name)
    put(page.root)
    for name in sorted(page.specs):
        put(name)
        spec = page.specs[name]
        for spec_field in fields(spec):
            put(spec_field.name)
            put(str(getattr(spec, spec_field.name)))
    return digest.hexdigest()


def stamp_key(stamp: LoadStamp) -> Tuple[float, str, str, int]:
    """The stamp fields that feed URL/size resolution, as a hashable key."""
    return (stamp.when_hours, stamp.device, stamp.user, stamp.nonce)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or a whole session)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SnapshotCache:
    """LRU cache of ``(snapshot, store)`` keyed on (blueprint, stamp).

    Entries are returned *shared*: loads never mutate a snapshot or store
    (the serial sweep has always reused one snapshot across configs), so
    sharing across benchmarks and across configs is safe and is the point.
    """

    def __init__(self, max_entries: Optional[int] = 512):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, Tuple[PageSnapshot, ReplayStore]]" = (
            OrderedDict()
        )
        #: Fingerprints memoised per blueprint object (id-keyed weak-ish
        #: memo; recomputing the content hash on every lookup would defeat
        #: the purpose for large corpora).
        self._fingerprints: "OrderedDict[int, Tuple[PageBlueprint, str]]" = (
            OrderedDict()
        )
        self._loads: "OrderedDict[tuple, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # An *empty* cache must still be truthy: callers distinguish "no
        # cache supplied" (None) from "private empty cache" (instance).
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._fingerprints.clear()
        self._loads.clear()
        self.stats = CacheStats()

    def _fingerprint(self, page: PageBlueprint) -> str:
        memo = self._fingerprints.get(id(page))
        # Guard against id() reuse after garbage collection: the memo also
        # pins the blueprint object, so a live hit is always genuine.
        if memo is not None and memo[0] is page:
            return memo[1]
        fingerprint = blueprint_fingerprint(page)
        self._fingerprints[id(page)] = (page, fingerprint)  # repro: allow[DET105] memo key only; never ordered or persisted, and the stored object pin guards id() reuse
        if len(self._fingerprints) > 4096:
            self._fingerprints.popitem(last=False)
        return fingerprint

    def key(self, page: PageBlueprint, stamp: LoadStamp) -> tuple:
        return (self._fingerprint(page), stamp_key(stamp))

    def materialized(
        self, page: PageBlueprint, stamp: LoadStamp
    ) -> Tuple[PageSnapshot, ReplayStore]:
        """The ``(snapshot, store)`` for (page, stamp), cached.

        A miss materialises the snapshot and records it; a hit returns the
        previously built pair, promoted to most-recently-used.
        """
        key = self.key(page, stamp)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        snapshot = page.materialize(stamp)
        store = record_snapshot(snapshot)
        self._entries[key] = (snapshot, store)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return snapshot, store

    def shared_load(self, key: tuple) -> Any:
        """The load kept under ``key``, or None.  Callers must not change it."""
        load = self._loads.get(key)
        if load is not None:
            self._loads.move_to_end(key)
        return load

    def share_load(self, key: tuple, load: Any) -> None:
        """Keep ``load`` under ``key`` for later matrices to share."""
        self._loads[key] = load
        if len(self._loads) > SHARED_LOADS:
            self._loads.popitem(last=False)


#: Session-wide default cache: every sweep and benchmark in a process
#: shares snapshots through this instance unless told otherwise.
DEFAULT_CACHE = SnapshotCache()


def materialize_cached(
    page: PageBlueprint,
    stamp: LoadStamp,
    cache: Optional[SnapshotCache] = None,
) -> Tuple[PageSnapshot, ReplayStore]:
    """Materialise and record through ``cache`` (default: session cache)."""
    if cache is None:
        cache = DEFAULT_CACHE
    return cache.materialized(page, stamp)
