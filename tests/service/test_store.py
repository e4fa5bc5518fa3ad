"""Sharded dependency store: ring, shards, LRU, TTL, histograms."""

import pytest

from repro.service.store import (
    HashRing,
    LatencyHistogram,
    LookupStatus,
    Shard,
    StoreEntry,
    payload_size_bytes,
    stable_hash,
)


def entry(page="news0", device="phone", at=0.0, size=100):
    return StoreEntry(
        page=page,
        device_class=device,
        payload={"urls": [], "exemplars": {}},
        computed_at_hours=at,
        size_bytes=size,
    )


class TestStableHash:
    def test_deterministic_and_seed_independent(self):
        # sha1-based: the value is a constant of the string, not of
        # PYTHONHASHSEED (unlike builtin hash()).
        assert stable_hash("news0.com/") == stable_hash("news0.com/")
        assert stable_hash("a") != stable_hash("b")
        assert 0 <= stable_hash("x") < 2 ** 64


class TestHashRing:
    def test_routes_all_shards(self):
        ring = HashRing(shard_count=8, vnodes=64)
        hit = {ring.shard_for(f"page{i}.com/") for i in range(400)}
        assert hit == set(range(8))

    def test_routing_is_stable(self):
        first = HashRing(4)
        second = HashRing(4)
        for i in range(100):
            key = f"k{i}"
            assert first.shard_for(key) == second.shard_for(key)

    def test_adding_shards_moves_a_minority_of_keys(self):
        small = HashRing(8)
        grown = HashRing(9)
        keys = [f"page{i}.com/" for i in range(1000)]
        moved = sum(
            1 for key in keys if small.shard_for(key) != grown.shard_for(key)
        )
        # Consistent hashing: ~1/9 of the keyspace moves, not most of it.
        assert moved < 350

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestShardLookup:
    def test_miss_then_hit(self):
        shard = Shard(0, 10_000)
        got, status = shard.lookup(
            ("news0", "phone"), 1.0, ttl_hours=12.0, freshness_hours=2.0
        )
        assert got is None and status is LookupStatus.MISS
        shard.insert(entry(at=0.5))
        got, status = shard.lookup(
            ("news0", "phone"), 1.0, ttl_hours=12.0, freshness_hours=2.0
        )
        assert got is not None and status is LookupStatus.HIT
        assert got.hits == 1

    def test_stale_hit_within_ttl(self):
        shard = Shard(0, 10_000)
        shard.insert(entry(at=0.0))
        got, status = shard.lookup(
            ("news0", "phone"), 5.0, ttl_hours=12.0, freshness_hours=2.0
        )
        assert got is not None and status is LookupStatus.STALE_HIT
        assert shard.counters.stale_hits == 1

    def test_expired_entry_is_dropped(self):
        shard = Shard(0, 10_000)
        shard.insert(entry(at=0.0, size=100))
        got, status = shard.lookup(
            ("news0", "phone"), 20.0, ttl_hours=12.0, freshness_hours=2.0
        )
        assert got is None and status is LookupStatus.EXPIRED
        assert len(shard) == 0
        assert shard.counters.resident_bytes == 0
        # The key is genuinely gone: the next lookup is a plain miss.
        _, status = shard.lookup(
            ("news0", "phone"), 20.0, ttl_hours=12.0, freshness_hours=2.0
        )
        assert status is LookupStatus.MISS


class TestShardLru:
    def test_eviction_is_least_recently_used(self):
        shard = Shard(0, 250)
        shard.insert(entry(page="a", size=100))
        shard.insert(entry(page="b", size=100))
        # Touch "a" so "b" becomes the LRU victim.
        shard.lookup(("a", "phone"), 0.0, ttl_hours=12.0, freshness_hours=2.0)
        shard.insert(entry(page="c", size=100))
        assert [e.page for e in shard.entries()] == ["a", "c"]
        assert shard.counters.evictions == 1
        assert shard.counters.resident_bytes == 200

    def test_reinsert_replaces_without_eviction(self):
        shard = Shard(0, 250)
        shard.insert(entry(page="a", size=100))
        shard.insert(entry(page="a", size=150))
        assert len(shard) == 1
        assert shard.counters.evictions == 0
        assert shard.counters.resident_bytes == 150

    def test_oversized_entry_rejected(self):
        shard = Shard(0, 100)
        shard.insert(entry(page="a", size=90))
        assert not shard.insert(entry(page="big", size=101))
        assert shard.counters.rejected == 1
        assert [e.page for e in shard.entries()] == ["a"]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Shard(0, 0)


class TestLatencyHistogram:
    def test_percentiles_are_bucket_edges(self):
        histogram = LatencyHistogram(bucket_ms=0.1, buckets=100)
        for value in (0.05, 0.15, 0.25, 0.95):
            histogram.record(value)
        assert histogram.samples == 4
        assert histogram.percentile(0.5) == pytest.approx(0.2)
        assert histogram.percentile(0.99) == pytest.approx(1.0)
        assert histogram.mean == pytest.approx(0.35)

    def test_overflow_bucket(self):
        histogram = LatencyHistogram(bucket_ms=0.1, buckets=10)
        histogram.record(99.0)
        assert histogram.percentile(0.5) == pytest.approx(1.1)

    def test_negative_sample_clamps_to_the_first_bucket(self):
        # Regression: int(-0.5 / bucket) is a negative index, which
        # Python would quietly resolve from the tail — one bad sample
        # used to land in the overflow bucket and drag p99 to the max.
        histogram = LatencyHistogram(bucket_ms=0.1, buckets=10)
        histogram.record(-0.5)
        assert histogram.samples == 1
        assert histogram.overflow == 0
        assert histogram.percentile(0.99) == pytest.approx(0.1)

    def test_overflow_is_surfaced_in_the_summary(self):
        histogram = LatencyHistogram(bucket_ms=0.1, buckets=10)
        histogram.record(0.05)
        histogram.record(99.0)
        summary = histogram.summary()
        assert summary["overflow"] == 1
        assert summary["p999_ms"] == pytest.approx(1.1)
        assert "p999_ms" in LatencyHistogram().summary()

    def test_merged_equals_single_stream(self):
        left, right, both = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for index in range(50):
            value = 0.01 * index
            (left if index % 2 else right).record(value)
            both.record(value)
        merged = LatencyHistogram.merged([left, right])
        assert merged.summary() == both.summary()

    def test_merged_rejects_mixed_geometry(self):
        with pytest.raises(ValueError):
            LatencyHistogram.merged(
                [LatencyHistogram(buckets=10), LatencyHistogram(buckets=20)]
            )

    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean == 0.0
        assert LatencyHistogram.merged([]).samples == 0


class TestPayloadSize:
    def test_grows_with_urls_and_exemplars(self):
        empty = payload_size_bytes({"urls": [], "exemplars": {}})
        loaded = payload_size_bytes(
            {"urls": ["a.com/x", "a.com/y"], "exemplars": {"a.com/x": {}}}
        )
        assert loaded > empty
        assert loaded == empty + len("a.com/x") + len("a.com/y") + 4 + 48

    def test_counts_utf8_bytes_not_code_points(self):
        # Regression: len(str) undercounted non-ASCII URLs; the wire
        # cost of "café.com/" is its UTF-8 byte length.
        ascii_size = payload_size_bytes(
            {"urls": ["cafe.com/"], "exemplars": {}}
        )
        utf8_size = payload_size_bytes(
            {"urls": ["café.com/"], "exemplars": {}}
        )
        assert utf8_size == ascii_size + 1  # é encodes to two bytes
