"""Tests for cache digests (push suppression, footnote 2)."""

import hashlib
import pickle

import pytest

from repro import audit
from repro.browser.cache import BrowserCache
from repro.core.cache_digest import (
    CacheDigest,
    digest_from_cache,
    filter_pushes,
)


class TestCacheDigest:
    def test_no_false_negatives(self):
        """One-sided error: everything inserted is always found."""
        urls = [f"a.com/r{i}.js" for i in range(500)]
        digest = CacheDigest(urls)
        for url in urls:
            assert url in digest

    def test_false_positive_rate_bounded(self):
        cached = [f"a.com/in{i}.js" for i in range(1000)]
        digest = CacheDigest(cached, bits_per_entry=8)
        probes = [f"b.com/out{i}.js" for i in range(2000)]
        false_positives = sum(1 for url in probes if url in digest)
        # Expected ~2^-8 = 0.4%; allow generous slack.
        assert false_positives / len(probes) < 0.05

    def test_bits_per_entry_bounds(self):
        with pytest.raises(ValueError):
            CacheDigest([], bits_per_entry=0)
        with pytest.raises(ValueError):
            CacheDigest([], bits_per_entry=40)

    def test_size_scales_with_entries(self):
        small = CacheDigest([f"u{i}" for i in range(10)])
        large = CacheDigest([f"u{i}" for i in range(1000)])
        assert large.size_bytes > small.size_bytes
        # ~10 bits/entry: 1000 entries ~ 1.25 KB, far below the URLs.
        assert large.size_bytes < 2000

    def test_empty_digest(self):
        digest = CacheDigest([])
        assert "anything" not in digest
        assert digest.size_bytes >= 2

    def test_precision_improves_with_bits(self):
        assert (
            CacheDigest([], bits_per_entry=12).false_positive_rate
            < CacheDigest([], bits_per_entry=6).false_positive_rate
        )


    def test_hash_is_sha256_prefix_mod_space(self):
        """The memoised URL key leaves every digest's hashes unchanged."""
        urls = [f"a.com/k{i}.css" for i in range(50)]
        for bits in (1, 8, 20):
            digest = CacheDigest(urls, bits_per_entry=bits)
            for url in urls + ["b.com/absent.js"]:
                prefix = hashlib.sha256(url.encode()).digest()[:8]
                assert digest._hash(url) == (
                    int.from_bytes(prefix, "big") % digest._space
                )

    def test_pickle_carries_no_url_memo(self):
        urls = [f"a.com/p{i}.js" for i in range(20)]
        digest = CacheDigest(urls)
        clone = pickle.loads(pickle.dumps(digest))
        assert vars(clone).keys() == {
            "bits_per_entry", "entry_count", "_space", "_hashes"
        }
        assert all(url in clone for url in urls)


class TestIntegration:
    def test_digest_from_cache_honours_freshness(self):
        cache = BrowserCache()
        cache.store("fresh.com/x", 1, when_hours=90.0, max_age_hours=24.0)
        cache.store("stale.com/y", 1, when_hours=0.0, max_age_hours=1.0)
        digest = digest_from_cache(cache, when_hours=100.0)
        assert "fresh.com/x" in digest
        assert "stale.com/y" not in digest

    def test_filter_pushes(self):
        digest = CacheDigest(["a.com/cached.js"])
        pushes = ["a.com/cached.js", "a.com/new.js"]
        assert filter_pushes(pushes, digest) == ["a.com/new.js"]

    def test_filter_preserves_order(self):
        digest = CacheDigest([])
        pushes = [f"a.com/p{i}.js" for i in range(5)]
        assert filter_pushes(pushes, digest) == pushes

    def test_own_list_short_circuit_is_audited(self, monkeypatch):
        """Under the audit, the short-circuit re-checks its answer with
        the hashed membership test, so a digest whose hashes no longer
        claim its source list is caught instead of silently trusted."""
        urls = [f"a.com/s{i}.js" for i in range(10)]
        digest = CacheDigest(urls)
        digest._hashes = set()
        monkeypatch.setattr(audit, "ENABLED", False)
        assert filter_pushes(urls, digest) == []
        monkeypatch.setattr(audit, "ENABLED", True)
        with pytest.raises(audit.AuditError, match="digest-source-filter"):
            filter_pushes(urls, digest)
