"""Sharded dependency store: the production half of Sec 4.1.2.

A fleet-scale Vroom deployment cannot recompute stable sets per request;
it serves them out of a store.  The store here is deliberately shaped
like the real thing:

* **Consistent-hash sharding** over the page URL (sha1-based ring with
  virtual nodes), so adding shards moves only ``1/n`` of the keyspace
  and every process routes identically regardless of
  ``PYTHONHASHSEED``.
* **Entries** keyed ``(page, device class)`` — the offline resolver's
  own granularity — carrying the serialised stable set, its
  computation time, and a byte-size estimate.
* **TTL + freshness horizon.**  An entry younger than the freshness
  horizon is a *hit*; older but within TTL is a *stale hit* (still
  served — stale hints beat no hints, the accuracy bridge quantifies
  by how much); past TTL it is *expired* and treated as a miss.
* **Per-shard memory budget** with deterministic LRU eviction, and
  per-shard counters plus a fixed-bucket latency histogram so p50/p99
  are bit-identical across runs.

Everything here is a pure function of its inputs; the wall clock never
appears (time is the service simulation's virtual ``now_hours``).
"""

from __future__ import annotations

import enum
import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def stable_hash(text: str) -> int:
    """64-bit sha1-based hash, independent of ``PYTHONHASHSEED``."""
    return int.from_bytes(hashlib.sha1(text.encode()).digest()[:8], "big")


class LookupStatus(enum.Enum):
    """Outcome of one store lookup."""

    HIT = "hit"                # entry present and fresh
    STALE_HIT = "stale_hit"    # entry present, past freshness, within TTL
    EXPIRED = "expired"        # entry present but past TTL: dropped, a miss
    MISS = "miss"              # no entry at all


@dataclass
class StoreEntry:
    """One per-(page, device-class) hint record."""

    page: str
    device_class: str
    #: Serialised stable set (``core.offline.stable_set_to_dict``) — the
    #: bytes a production store would actually hold.
    payload: dict
    #: Simulated hour the offline resolution that produced it ran.
    computed_at_hours: float
    size_bytes: int
    hits: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.page, self.device_class)

    def age_hours(self, now_hours: float) -> float:
        return now_hours - self.computed_at_hours


@dataclass
class ShardCounters:
    """Traffic and occupancy counters for one shard."""

    lookups: int = 0
    hits: int = 0
    stale_hits: int = 0
    misses: int = 0
    expired: int = 0
    inserts: int = 0
    evictions: int = 0
    rejected: int = 0
    resident_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "stale_hits": self.stale_hits,
            "misses": self.misses,
            "expired": self.expired,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "resident_bytes": self.resident_bytes,
        }


class LatencyHistogram:
    """Fixed-bucket latency histogram with deterministic percentiles.

    Recording into buckets (rather than keeping raw samples) keeps a
    multi-million-lookup run O(1) per sample, and percentile extraction
    — the bucket's upper edge — is bit-identical across runs by
    construction.
    """

    def __init__(self, bucket_ms: float = 0.01, buckets: int = 5000):
        self.bucket_ms = bucket_ms
        self._counts = [0] * (buckets + 1)  # last bucket = overflow
        self.samples = 0
        self.total_ms = 0.0

    def record(self, latency_ms: float) -> None:
        index = int(latency_ms / self.bucket_ms)
        if index < 0:
            # A negative sample would otherwise wrap to the tail buckets
            # (Python's negative indexing) and silently inflate p99.
            index = 0
        elif index >= len(self._counts):
            index = len(self._counts) - 1
        self._counts[index] += 1
        self.samples += 1
        self.total_ms += latency_ms

    def percentile(self, fraction: float) -> float:
        """Upper edge of the bucket holding the ``fraction`` quantile."""
        if self.samples == 0:
            return 0.0
        target = fraction * self.samples
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                return (index + 1) * self.bucket_ms
        return len(self._counts) * self.bucket_ms

    @property
    def mean(self) -> float:
        return self.total_ms / self.samples if self.samples else 0.0

    @property
    def overflow(self) -> int:
        """Samples truncated into the top (catch-all) bucket."""
        return self._counts[-1]

    @classmethod
    def merged(cls, histograms: List["LatencyHistogram"]) -> "LatencyHistogram":
        """Combine same-geometry histograms (e.g. per-shard → global)."""
        if not histograms:
            return cls()
        first = histograms[0]
        out = cls(bucket_ms=first.bucket_ms, buckets=len(first._counts) - 1)
        for histogram in histograms:
            if len(histogram._counts) != len(out._counts):
                raise ValueError("histogram geometries differ")
            for index, count in enumerate(histogram._counts):
                out._counts[index] += count
            out.samples += histogram.samples
            out.total_ms += histogram.total_ms
        return out

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "mean_ms": round(self.mean, 6),
            "p50_ms": round(self.percentile(0.50), 6),
            "p90_ms": round(self.percentile(0.90), 6),
            "p99_ms": round(self.percentile(0.99), 6),
            "p999_ms": round(self.percentile(0.999), 6),
            # Tail truncation must be visible: a non-zero overflow means
            # the top percentiles are clipped at the last bucket edge.
            "overflow": self.overflow,
        }


class Shard:
    """One LRU shard: an ordered map under a byte budget."""

    def __init__(self, index: int, memory_budget_bytes: int):
        if memory_budget_bytes <= 0:
            raise ValueError("shard memory budget must be positive")
        self.index = index
        self.memory_budget_bytes = memory_budget_bytes
        #: key -> entry; insertion/access order is the LRU order.
        self._entries: Dict[Tuple[str, str], StoreEntry] = {}
        self.counters = ShardCounters()
        self.latency = LatencyHistogram()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[str, str]) -> Optional[StoreEntry]:
        return self._entries.get(key)

    # repro: hotpath
    def lookup(
        self,
        key: Tuple[str, str],
        now_hours: float,
        *,
        ttl_hours: float,
        freshness_hours: float,
    ) -> Tuple[Optional[StoreEntry], LookupStatus]:
        self.counters.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None, LookupStatus.MISS
        age = entry.age_hours(now_hours)
        if age > ttl_hours:
            # Past TTL: the store must not serve it (arbitrarily old
            # hints would poison loads); drop it and report a miss-like
            # status so the caller re-enqueues resolution.
            del self._entries[key]
            self.counters.resident_bytes -= entry.size_bytes
            self.counters.expired += 1
            return None, LookupStatus.EXPIRED
        # Promote to most-recently-used.
        del self._entries[key]
        self._entries[key] = entry
        entry.hits += 1
        if age > freshness_hours:
            self.counters.stale_hits += 1
            return entry, LookupStatus.STALE_HIT
        self.counters.hits += 1
        return entry, LookupStatus.HIT

    def insert(self, entry: StoreEntry) -> bool:
        """Install ``entry``, evicting LRU entries to fit the budget.

        Returns False (and counts a rejection) for an entry that could
        never fit — evicting the whole shard for one oversized record
        would be pathological.
        """
        if entry.size_bytes > self.memory_budget_bytes:
            self.counters.rejected += 1
            return False
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self.counters.resident_bytes -= old.size_bytes
        while (
            self.counters.resident_bytes + entry.size_bytes
            > self.memory_budget_bytes
        ):
            lru_key = next(iter(self._entries))
            victim = self._entries.pop(lru_key)
            self.counters.resident_bytes -= victim.size_bytes
            self.counters.evictions += 1
        self._entries[entry.key] = entry
        self.counters.resident_bytes += entry.size_bytes
        self.counters.inserts += 1
        return True

    def entries(self) -> List[StoreEntry]:
        """Entries in LRU order (least recent first)."""
        return list(self._entries.values())

    def discard(self, key: Tuple[str, str]) -> Optional[StoreEntry]:
        """Silently remove an entry (migration bookkeeping, not a miss)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.counters.resident_bytes -= entry.size_bytes
        return entry

    def wipe(self) -> int:
        """Drop every entry (the shard process died); returns the count.

        Counters and the latency histogram survive — they are the
        *report's* memory, not the process's.
        """
        lost = len(self._entries)
        self._entries.clear()
        self.counters.resident_bytes = 0
        return lost


class HashRing:
    """Consistent-hash ring over shard indices with virtual nodes."""

    def __init__(self, shard_count: int, vnodes: int = 64):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        points: List[Tuple[int, int]] = []
        for shard in range(shard_count):
            for vnode in range(vnodes):
                points.append((stable_hash(f"shard{shard}#v{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """First ring point clockwise of ``key``'s hash."""
        position = bisect_right(self._hashes, stable_hash(key))
        if position == len(self._hashes):
            position = 0
        return self._shards[position]


@dataclass
class StoreConfig:
    """Knobs of the sharded store (see docs/API.md for the table)."""

    shard_count: int = 8
    vnodes: int = 64
    #: Per-shard resident-set budget; LRU eviction keeps it honest.
    shard_memory_bytes: int = 256 * 1024
    #: Entries older than this are dropped at lookup (treated as a miss).
    ttl_hours: float = 12.0
    #: Entries older than this (but within TTL) count as stale hits and
    #: trigger a refresh enqueue.
    freshness_hours: float = 2.0
    #: Copies of every entry (1 = no replication).  Writes fan out to
    #: the first ``replication`` distinct live shards on the ring; reads
    #: fail over along the same preference list.
    replication: int = 1
    #: Hot-key mitigation: a tiny per-frontend entry cache absorbing
    #: Zipf-head traffic before it reaches the shards (0 disables).
    frontend_cache_entries: int = 0
    #: How long a frontend-cached entry may be served without re-reading
    #: its shard (bounds added staleness from the cache).
    frontend_cache_ttl_hours: float = 0.05


def payload_size_bytes(payload: dict) -> int:
    """Byte-size estimate of a stored stable-set payload.

    Counts what a production row would hold: the URL list plus a fixed
    per-exemplar record (name/size/type/order) and row overhead.
    """
    urls = payload.get("urls", [])
    size = 64  # row header: key, timestamps, bookkeeping
    for url in urls:
        # Encoded bytes, not characters: a non-ASCII fleet must not
        # under-charge the shard budget.
        size += len(url.encode("utf-8")) + 2
    size += 48 * len(payload.get("exemplars", {}))
    return size
