"""Fleet placement: replicated consistent hashing with live resharding.

PR 4's :class:`~repro.service.store.HashRing` is a *static* ring — fine
for one box, useless for a fleet.  This module grows it into the
production story of Sec 4.1.2:

* :class:`PlacementMap` — a **versioned** consistent-hash ring.  Every
  key owns a *preference list* of the first ``replication`` distinct
  shards clockwise of its hash, so writes fan out N ways and reads fail
  over deterministically.  Topology changes (a shard joining or
  draining) do not flip the whole map at once: the joining shard's
  virtual nodes activate **one ring point at a time**, each activation
  moving exactly one ring segment's worth of keys.  The map is a valid
  consistent-hash ring between any two steps, which is what makes live
  resharding correct mid-migration.
* :class:`FleetStore` — the replicated store built on the map: write
  fan-out, failover reads with read repair, shard death (a killed shard
  loses its resident set; replicas keep serving), segment-by-segment
  migration driven by :meth:`FleetStore.reshard_step`, and an optional
  tiny per-frontend cache absorbing Zipf-head hot keys before they
  reach a shard.
* Shard outages compose with :mod:`repro.net.faults`: a
  :class:`~repro.net.faults.FaultPlan` whose rules match the synthetic
  shard URLs (:func:`shard_url`) defines down/up windows — the same
  seeded, bit-deterministic machinery that breaks origin servers breaks
  store shards.

Under ``REPRO_AUDIT=1`` every lookup verifies *placement residency*: no
shard outside a key's current preference list holds a copy, so a
resharding bug that strands entries on the wrong shard fails loudly
instead of silently serving stale routing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro import audit
from repro.net.faults import FaultKind, FaultPlan, FaultRule
from repro.service.store import (
    LookupStatus,
    Shard,
    StoreConfig,
    StoreEntry,
    stable_hash,
)

Key = Tuple[str, str]  # (page name, device class)

#: Domain the synthetic shard URLs live under (FaultRule.domain target).
STORE_DOMAIN = "store.internal"


def shard_url(shard: int) -> str:
    """Synthetic URL identifying a shard to a :class:`FaultPlan`."""
    return f"shard{shard}.{STORE_DOMAIN}/"


def shard_outage_rule(
    shard: int,
    *,
    down_at_hours: float,
    up_at_hours: float,
    kind: FaultKind = FaultKind.STALL,
    rate: float = 1.0,
) -> FaultRule:
    """A fault rule taking ``shard`` down for a simulated-time window.

    The trailing dot in the substring keeps ``shard1`` from matching
    ``shard11``.
    """
    return FaultRule(
        kind=kind,
        rate=rate,
        url_substring=f"shard{shard}.",
        not_before=down_at_hours,
        not_after=up_at_hours,
    )


@dataclass
class RingPoint:
    """One virtual node on the placement ring."""

    hash: int
    shard: int
    vnode: int
    active: bool = True

    @property
    def sort_key(self) -> Tuple[int, int, int]:
        return (self.hash, self.shard, self.vnode)


class PlacementMap:
    """Versioned consistent-hash placement with N-way replication.

    With every point active and ``replication=1`` the primary route is
    bit-identical to :class:`~repro.service.store.HashRing` (same point
    labels, same sha1, same tie-break), so swapping the fleet store in
    does not move a single key.
    """

    def __init__(
        self, shard_count: int, vnodes: int = 64, replication: int = 1
    ):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        if replication < 1:
            raise ValueError("replication factor must be at least 1")
        if replication > shard_count:
            raise ValueError(
                f"replication {replication} exceeds shard count {shard_count}"
            )
        self.vnodes = vnodes
        self.replication = replication
        #: Bumped on every topology change (begin/step of a reshard).
        self.version = 0
        self.shard_ids: List[int] = list(range(shard_count))
        self._points: List[RingPoint] = []
        for shard in range(shard_count):
            self._points.extend(self._make_points(shard, active=True))
        self._points.sort(key=lambda point: point.sort_key)
        #: Activation queue of a joining shard (ascending hash order).
        self._joining: List[RingPoint] = []
        #: Deactivation queue of a draining shard (ascending hash order).
        self._draining: List[RingPoint] = []
        self._rebuild()

    def _make_points(self, shard: int, *, active: bool) -> List[RingPoint]:
        return [
            RingPoint(
                hash=stable_hash(f"shard{shard}#v{vnode}"),
                shard=shard,
                vnode=vnode,
                active=active,
            )
            for vnode in range(self.vnodes)
        ]

    def _rebuild(self) -> None:
        self._hashes = [p.hash for p in self._points if p.active]
        self._owners = [p.shard for p in self._points if p.active]

    # -- routing ----------------------------------------------------------

    def active_points(self) -> int:
        return len(self._hashes)

    def shards_for(self, key: str, count: Optional[int] = None) -> List[int]:
        """Preference list: first distinct shards clockwise of ``key``."""
        want = self.replication if count is None else count
        total = len(self._hashes)
        position = bisect_right(self._hashes, stable_hash(key))
        preference: List[int] = []
        seen: Set[int] = set()
        for step in range(total):
            shard = self._owners[(position + step) % total]
            if shard not in seen:
                seen.add(shard)
                preference.append(shard)
                if len(preference) == want:
                    break
        return preference

    def shard_for(self, key: str) -> int:
        """Primary shard (HashRing-compatible)."""
        return self.shards_for(key, 1)[0]

    # -- resharding -------------------------------------------------------

    def begin_add_shard(self) -> int:
        """Create a joining shard; its points activate via :meth:`step`."""
        if self._joining or self._draining:
            raise RuntimeError("a reshard is already in progress")
        shard = max(self.shard_ids) + 1
        self.shard_ids.append(shard)
        points = self._make_points(shard, active=False)
        self._points.extend(points)
        self._points.sort(key=lambda point: point.sort_key)
        self._joining = sorted(points, key=lambda point: point.sort_key)
        self.version += 1
        return shard

    def begin_remove_shard(self, shard: int) -> None:
        """Start draining ``shard``; its points retire via :meth:`step`."""
        if self._joining or self._draining:
            raise RuntimeError("a reshard is already in progress")
        if shard not in self.shard_ids:
            raise ValueError(f"unknown shard {shard}")
        if len(self.shard_ids) - 1 < self.replication:
            raise ValueError(
                "removing the shard would leave fewer shards than the "
                "replication factor"
            )
        self._draining = sorted(
            (p for p in self._points if p.shard == shard and p.active),
            key=lambda point: point.sort_key,
        )
        self.version += 1

    def pending_points(self) -> int:
        """Ring points still waiting to activate or retire."""
        return len(self._joining) + len(self._draining)

    def step(self, points: int = 1) -> List[RingPoint]:
        """Advance the reshard by up to ``points`` ring segments.

        Each activated (or retired) point hands over exactly the arc
        between its ring predecessor and itself; the map stays a valid
        consistent-hash ring after every step.  Returns the points that
        changed state.
        """
        changed: List[RingPoint] = []
        for _ in range(points):
            if self._joining:
                point = self._joining.pop(0)
                point.active = True
            elif self._draining:
                point = self._draining.pop(0)
                point.active = False
            else:
                break
            changed.append(point)
        if changed:
            drained = {
                shard
                for shard in self.shard_ids
                if not any(
                    p.active for p in self._points if p.shard == shard
                )
            }
            if drained and not self._draining:
                self.shard_ids = [
                    s for s in self.shard_ids if s not in drained
                ]
                self._points = [
                    p for p in self._points if p.shard not in drained
                ]
            self.version += 1
            self._rebuild()
        return changed


@dataclass
class FleetCounters:
    """Front-door and fleet-operation counters.

    The lookup/hit/miss fields count *front-door* requests exactly once
    each, however many replicas were probed to serve them — per-shard
    counters keep the per-replica view.
    """

    lookups: int = 0
    hits: int = 0
    stale_hits: int = 0
    misses: int = 0
    expired: int = 0
    #: Lookups whose entire preference list was down.
    unavailable: int = 0
    #: Lookups served by a shard other than the structural primary.
    failovers: int = 0
    #: Extra shard probes past the first live shard.
    replica_probes: int = 0
    #: Entries copied back to an earlier live replica after a failover
    #: read found them further down the preference list.
    read_repairs: int = 0
    #: Lookups absorbed by the per-frontend hot-key cache.
    frontend_hits: int = 0
    #: Write fan-out copies beyond the first live shard.
    replica_inserts: int = 0
    shard_wipes: int = 0
    entries_lost: int = 0


@dataclass
class MigrationCounters:
    """Cumulative live-resharding work."""

    steps: int = 0
    points_moved: int = 0
    keys_moved: int = 0
    entries_copied: int = 0
    entries_dropped: int = 0


class FrontendCache:
    """Tiny LRU of hot entries, bounded staleness, at the front door.

    Capacity is meant to be a handful of entries: under Zipf traffic the
    head pages pin themselves here and the shard behind the hottest ring
    segment stops melting.  ``ttl_hours`` bounds how stale a cached copy
    may get relative to its shard (the shard's own TTL still applies on
    top).
    """

    def __init__(self, capacity: int, ttl_hours: float):
        if capacity < 1:
            raise ValueError("frontend cache capacity must be positive")
        if ttl_hours <= 0:
            raise ValueError("frontend cache TTL must be positive")
        self.capacity = capacity
        self.ttl_hours = ttl_hours
        self._entries: Dict[Key, Tuple[StoreEntry, float]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Key, now_hours: float) -> Optional[StoreEntry]:
        row = self._entries.get(key)
        if row is None:
            self.misses += 1
            return None
        entry, cached_at = row
        if now_hours - cached_at > self.ttl_hours:
            del self._entries[key]
            self.misses += 1
            return None
        del self._entries[key]  # promote to most-recently-used
        self._entries[key] = row
        self.hits += 1
        return entry

    def put(self, key: Key, entry: StoreEntry, now_hours: float) -> None:
        entries = self._entries  # hoisted for the eviction loop
        entries.pop(key, None)
        entries[key] = (entry, now_hours)
        while len(entries) > self.capacity:
            del entries[next(iter(entries))]
            self.evictions += 1

    def drop(self, key: Key) -> None:
        """Remove without counting an invalidation (TTL housekeeping)."""
        self._entries.pop(key, None)

    def invalidate(self, key: Key) -> None:
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def as_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "ttl_hours": self.ttl_hours,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass(slots=True)
class FleetLookup:
    """Outcome of one front-door lookup against the fleet.

    Built once per lookup on the service hot path — slotted so the
    per-lookup garbage is a bare fixed-size object, not object + dict.
    """

    entry: Optional[StoreEntry]
    status: LookupStatus
    #: Shard that served (or, on a total miss, the first live shard);
    #: None for frontend-cache hits and fully unavailable keys.
    shard: Optional[Shard]
    #: Shard probes performed (0 for frontend hits / unavailable keys).
    probes: int = 1
    frontend: bool = False
    unavailable: bool = False


class FleetStore:
    """Replicated, failover-capable, live-reshardable dependency store.

    Shards from :mod:`repro.service.store` behind a :class:`PlacementMap`;
    with ``replication=1`` it routes exactly as the static
    :class:`~repro.service.store.HashRing` does.
    """

    def __init__(
        self,
        config: Optional[StoreConfig] = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.config = config or StoreConfig()
        if self.config.replication > self.config.shard_count:
            raise ValueError(
                "replication cannot exceed the shard count"
            )
        if self.config.ttl_hours <= 0:
            raise ValueError("ttl_hours must be positive")
        if self.config.freshness_hours <= 0:
            raise ValueError("freshness_hours must be positive")
        if self.config.frontend_cache_entries < 0:
            raise ValueError("frontend_cache_entries must be non-negative")
        self.placement = PlacementMap(
            self.config.shard_count,
            self.config.vnodes,
            self.config.replication,
        )
        self.shards: Dict[int, Shard] = {
            index: Shard(index, self.config.shard_memory_bytes)
            for index in self.placement.shard_ids
        }
        self.retired_shards: List[Shard] = []
        self.frontend: Optional[FrontendCache] = None
        if self.config.frontend_cache_entries > 0:
            self.frontend = FrontendCache(
                self.config.frontend_cache_entries,
                self.config.frontend_cache_ttl_hours,
            )
        self.counters = FleetCounters()
        self.migration = MigrationCounters()
        self.down: Set[int] = set()
        self.health_events: List[dict] = []
        self._plan = fault_plan
        self._boundaries: List[float] = []
        if fault_plan is not None:
            edges = set()
            for rule in fault_plan.rules:
                edges.add(rule.not_before)
                if rule.not_after != float("inf"):
                    edges.add(rule.not_after)
            self._boundaries = sorted(edges)
        self._health_window: Optional[Tuple[int, int, int]] = None
        #: key -> routing URL, so migration can re-place resident entries.
        self._routes: Dict[Key, str] = {}
        #: page_url -> preference list, memoised per placement version.
        #: ``shards_for`` costs a sha1 + ring walk + set/list build per
        #: call; the ring only changes when a reshard bumps
        #: ``placement.version``, so the route is computed once per
        #: (page, topology) instead of once per lookup.  The hit/miss
        #: tallies are diagnostics only — deliberately not
        #: ``FleetCounters`` fields (the smoke goldens pin their dict).
        self._route_cache: Dict[str, List[int]] = {}
        self._route_version = self.placement.version
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    def _owners_for(self, page_url: str) -> List[int]:
        """Preference list for a page URL, cached per placement version.

        Correct because ``shards_for`` depends only on ring topology
        (never on shard health): every topology change goes through
        ``PlacementMap`` and bumps ``version``.  Callers must treat the
        returned list as read-only.
        """
        placement = self.placement
        if placement.version != self._route_version:
            self._route_cache.clear()
            self._route_version = placement.version
        owners = self._route_cache.get(page_url)
        if owners is None:
            owners = placement.shards_for(page_url)
            self._route_cache[page_url] = owners
            self.route_cache_misses += 1
        else:
            self.route_cache_hits += 1
        return owners

    # -- health (repro.net.faults composition) ---------------------------

    def sync_health(self, now_hours: float) -> None:
        """Refresh the down-shard set from the fault plan at ``now_hours``.

        A shard is down while any matching transport/server fault rule
        fires for its synthetic URL (:func:`shard_url`).  Going down
        wipes the shard's resident set — an in-memory store does not
        survive its process — and healing brings it back *empty*; with
        replication the surviving replicas keep serving, without it the
        keyspace goes cold until re-resolved.
        """
        if self._plan is None or not self._plan.rules:
            return
        window = (
            bisect_left(self._boundaries, now_hours),
            bisect_right(self._boundaries, now_hours),
            len(self.shards),
        )
        if window == self._health_window:
            return
        self._health_window = window
        down: Set[int] = set()
        for index in self.shards:
            url = shard_url(index)
            fault = self._plan.transport_fault(
                url, STORE_DOMAIN, now=now_hours, attempt=0
            ) or self._plan.server_fault(
                url, STORE_DOMAIN, now=now_hours, attempt=0
            )
            if fault is not None:
                down.add(index)
        for index in sorted(down - self.down):
            lost = self.shards[index].wipe()
            self.counters.shard_wipes += 1
            self.counters.entries_lost += lost
            self.health_events.append(
                {
                    "hours": round(now_hours, 6),
                    "shard": index,
                    "event": "down",
                    "entries_lost": lost,
                }
            )
        for index in sorted(self.down - down):
            self.health_events.append(
                {"hours": round(now_hours, 6), "shard": index, "event": "up"}
            )
        self.down = down

    # -- reads ------------------------------------------------------------

    def _audit_residency(self, key: Key, owners: List[int]) -> None:
        allowed = set(owners)
        for index, shard in self.shards.items():
            if shard.get(key) is not None:
                audit.require(
                    index in allowed,
                    "placement-residency",
                    f"key {key!r} resident on shard {index}, "
                    f"owners {sorted(allowed)} "
                    f"(placement v{self.placement.version})",
                )

    def lookup(
        self, page_url: str, page: str, device_class: str, now_hours: float
    ) -> FleetLookup:
        key = (page, device_class)
        config = self.config
        counters = self.counters  # hoisted: ~10 loads per lookup otherwise
        counters.lookups += 1

        if self.frontend is not None:
            entry = self.frontend.get(key, now_hours)
            if entry is not None:
                age = entry.age_hours(now_hours)
                if age <= config.ttl_hours:
                    if age > config.freshness_hours:
                        status = LookupStatus.STALE_HIT
                        counters.stale_hits += 1
                    else:
                        status = LookupStatus.HIT
                        counters.hits += 1
                    counters.frontend_hits += 1
                    return FleetLookup(
                        entry, status, None, probes=0, frontend=True
                    )
                self.frontend.drop(key)  # past store TTL: unusable

        owners = self._owners_for(page_url)
        if audit.ENABLED:
            self._audit_residency(key, owners)
        acting = [index for index in owners if index not in self.down]
        if not acting:
            counters.unavailable += 1
            counters.misses += 1
            return FleetLookup(
                None, LookupStatus.MISS, None, probes=0, unavailable=True
            )

        first_status: Optional[LookupStatus] = None
        for position, index in enumerate(acting):
            shard = self.shards[index]
            entry, status = shard.lookup(
                key,
                now_hours,
                ttl_hours=config.ttl_hours,
                freshness_hours=config.freshness_hours,
            )
            if position == 0:
                first_status = status
            else:
                counters.replica_probes += 1
            if entry is None:
                continue
            if index != owners[0]:
                counters.failovers += 1
            if position > 0:
                # Read repair: heal the earlier (live but empty) copies.
                for earlier in acting[:position]:
                    if self.shards[earlier].insert(replace(entry)):
                        counters.read_repairs += 1
            if status is LookupStatus.STALE_HIT:
                counters.stale_hits += 1
            else:
                counters.hits += 1
            if self.frontend is not None:
                self.frontend.put(key, entry, now_hours)
            return FleetLookup(entry, status, shard, probes=position + 1)

        if first_status is LookupStatus.EXPIRED:
            counters.expired += 1
            status = LookupStatus.EXPIRED
        else:
            counters.misses += 1
            status = LookupStatus.MISS
        return FleetLookup(
            None, status, self.shards[acting[0]], probes=len(acting)
        )

    def peek(self, page_url: str, key: Key) -> Optional[StoreEntry]:
        """The freshest live copy of ``key``, without touching counters."""
        best: Optional[StoreEntry] = None
        for index in self._owners_for(page_url):
            if index in self.down:
                continue
            entry = self.shards[index].get(key)
            if entry is not None and (
                best is None
                or entry.computed_at_hours > best.computed_at_hours
            ):
                best = entry
        return best

    # -- writes -----------------------------------------------------------

    def insert(self, page_url: str, entry: StoreEntry) -> bool:
        """Fan the entry out to every live shard in the preference list."""
        key = entry.key
        self._routes[key] = page_url
        if self.frontend is not None:
            self.frontend.invalidate(key)
        owners = self._owners_for(page_url)
        stored = False
        primary_seen = False
        for index in owners:
            if index in self.down:
                continue
            copy = entry if not primary_seen else replace(entry)
            if self.shards[index].insert(copy):
                if primary_seen:
                    self.counters.replica_inserts += 1
                stored = True
            primary_seen = True
        return stored

    # -- live resharding --------------------------------------------------

    def begin_add_shard(self) -> int:
        """Add a shard to the placement; it owns nothing until stepped in."""
        index = self.placement.begin_add_shard()
        self.shards[index] = Shard(index, self.config.shard_memory_bytes)
        return index

    def begin_remove_shard(self, index: int) -> None:
        self.placement.begin_remove_shard(index)

    def reshard_pending(self) -> int:
        return self.placement.pending_points()

    def reshard_step(self, points: int = 1) -> dict:
        """Move up to ``points`` ring segments and migrate their entries.

        After every step each resident key's copies sit exactly on its
        *current* preference list, so a lookup racing the migration can
        never be routed to a shard that lacks the entry — the property
        the ``placement-residency`` audit pins.
        """
        changed = self.placement.step(points)
        if not changed:
            return {"points": 0, "keys_moved": 0, "entries_copied": 0,
                    "entries_dropped": 0}
        live_ids = set(self.placement.shard_ids)
        moved = self._rebalance()
        for index in sorted(set(self.shards) - live_ids):
            # Fully drained: keep the shard's counters for the report.
            self.retired_shards.append(self.shards.pop(index))
        self.migration.steps += 1
        self.migration.points_moved += len(changed)
        self.migration.keys_moved += moved["keys_moved"]
        self.migration.entries_copied += moved["entries_copied"]
        self.migration.entries_dropped += moved["entries_dropped"]
        return {"points": len(changed), **moved}

    def _rebalance(self) -> dict:
        """Re-place every resident entry onto its current owner set."""
        best: Dict[Key, StoreEntry] = {}
        for shard in self.shards.values():
            for entry in shard.entries():
                current = best.get(entry.key)
                if (
                    current is None
                    or entry.computed_at_hours > current.computed_at_hours
                ):
                    best[entry.key] = entry
        keys_moved = entries_copied = entries_dropped = 0
        live_ids = set(self.placement.shard_ids)
        for key in sorted(best):
            page_url = self._routes.get(key)
            if page_url is None:
                continue
            owners = set(self.placement.shards_for(page_url))
            holders = {
                index
                for index, shard in self.shards.items()
                if shard.get(key) is not None
            }
            changed = False
            for index in sorted(owners - holders):
                if index in self.down or index not in live_ids:
                    continue
                if self.shards[index].insert(replace(best[key])):
                    entries_copied += 1
                    changed = True
            for index in sorted(holders - owners):
                self.shards[index].discard(key)
                entries_dropped += 1
                changed = True
            if changed:
                keys_moved += 1
        return {
            "keys_moved": keys_moved,
            "entries_copied": entries_copied,
            "entries_dropped": entries_dropped,
        }

    # -- reporting --------------------------------------------------------

    def shard_list(self) -> List[Shard]:
        """Live then retired shards, ascending index — report order."""
        live = [self.shards[index] for index in sorted(self.shards)]
        return live + list(self.retired_shards)

    def totals(self) -> dict:
        """Front-door outcome counters plus fleet-wide occupancy sums."""
        out = asdict(self.counters)
        inserts = evictions = rejected = resident = 0
        for shard in self.shard_list():
            inserts += shard.counters.inserts
            evictions += shard.counters.evictions
            rejected += shard.counters.rejected
            resident += shard.counters.resident_bytes
        out["inserts"] = inserts
        out["evictions"] = evictions
        out["rejected"] = rejected
        out["resident_bytes"] = resident
        return out

    def placement_summary(self) -> dict:
        return {
            "version": self.placement.version,
            "replication": self.placement.replication,
            "shards": sorted(self.shards),
            "retired_shards": [s.index for s in self.retired_shards],
            "active_points": self.placement.active_points(),
            "pending_points": self.placement.pending_points(),
            "down_shards": sorted(self.down),
            "health_events": list(self.health_events),
            "migration": asdict(self.migration),
        }
