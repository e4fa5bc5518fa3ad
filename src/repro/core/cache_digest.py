"""Cache digests: telling servers what the client already has.

The paper (Sec 3.1, footnote 2) notes that PUSH's classic
bandwidth-wastage problem — pushing content the client has cached — can
be solved by the client summarising its cache to servers, e.g. in a
cookie, the way H2O's CASPer does.  This module implements that summary
as a Golomb-ish hashed set (a simplified cache digest per the IETF
``draft-ietf-httpbis-cache-digest`` design): compact, probabilistic, with
one-sided error — a digest hit may be a false positive, a miss never is.

The long-run runner (:mod:`repro.longrun.runner`) models a warm client:
each (user, page) visit's served hints become the digest its next visit
sends, and :func:`filter_pushes` drops the served hints that digest
claims.  A false positive therefore suppresses a useful push (costing a
round trip later), never corrupts a load — the same failure mode as the
real mechanism.

A repeat visit is usually served exactly the list its digest was built
from.  A live digest keeps a reference to that source list, so
:meth:`CacheDigest.summarises` recognises it and :func:`filter_pushes`
returns ``[]`` without hashing: with no false negatives, every URL of
the source is a digest hit, so the hashed filter would drop them all.
The source is transient: it is never pickled (a checkpoint carries the
digest's four summary fields only), and a restored digest summarises no
list, so it takes the hashed path, with the same result.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable, List, Optional, Set

from repro import audit


@functools.lru_cache(maxsize=1 << 16)
def _url_key(url: str) -> int:
    """First 64 bits of ``sha256(url)``, shared by every digest.

    A pure function of the URL (the hash space only enters through
    :meth:`CacheDigest._hash`'s modulus), so one bounded process-wide
    memo serves every digest.  Being outside the digests, it is not
    pickled with them into long-run checkpoints.
    """
    return int.from_bytes(hashlib.sha256(url.encode()).digest()[:8], "big")


class CacheDigest:
    """A compact probabilistic summary of cached URLs."""

    #: The URL list this digest was built from, while it lives.  The
    #: class-level ``None`` is what a digest restored from a pickle
    #: sees, because :meth:`__getstate__` drops the instance's copy.
    _source: Optional[List[str]] = None

    def __init__(self, urls: Iterable[str], bits_per_entry: int = 8):
        """Build a digest over ``urls``.

        ``bits_per_entry`` trades size for false-positive rate: the FP
        probability is ~2**-bits_per_entry (the draft's P parameter).
        """
        if bits_per_entry < 1 or bits_per_entry > 32:
            raise ValueError("bits_per_entry must be in [1, 32]")
        self.bits_per_entry = bits_per_entry
        url_list = list(urls)
        self.entry_count = len(url_list)
        # Hash space scales with N * 2^P, as in the draft.
        space = self._space = max(1, self.entry_count) * (2 ** bits_per_entry)
        self._hashes: Set[int] = {_url_key(url) % space for url in url_list}
        self._source = url_list

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_source", None)
        return state

    def _hash(self, url: str) -> int:
        return _url_key(url) % self._space

    def summarises(self, urls: List[str]) -> bool:
        """Whether ``urls`` is the very list this digest was built from."""
        source = self._source
        return source is not None and urls == source

    def __contains__(self, url: str) -> bool:
        return self._hash(url) in self._hashes

    def __len__(self) -> int:
        return len(self._hashes)

    @property
    def size_bytes(self) -> int:
        """Wire size estimate: ~(P + log2-overhead) bits per entry."""
        if self.entry_count == 0:
            return 2
        per_entry_bits = self.bits_per_entry + 2  # Golomb-Rice overhead
        return 2 + math.ceil(self.entry_count * per_entry_bits / 8)

    @property
    def false_positive_rate(self) -> float:
        return 2.0 ** (-self.bits_per_entry)


def digest_from_cache(cache, when_hours: float, **kwargs) -> CacheDigest:
    """Digest of every URL fresh in a BrowserCache at ``when_hours``."""
    return CacheDigest(cache.fresh_urls(when_hours).keys(), **kwargs)


def filter_pushes(
    pushes: List[str], digest: CacheDigest
) -> List[str]:
    """Drop pushes the digest claims the client already holds.

    The digest's own source list filters to ``[]`` without hashing;
    under ``REPRO_AUDIT=1`` the hashed membership test re-checks that
    answer.
    """
    if digest.summarises(pushes):
        if audit.ENABLED:
            audit.require(
                all(url in digest for url in pushes),
                "digest-source-filter",
                "a digest's own source list survived its hashed filter",
            )
        return []
    hashes, space = digest._hashes, digest._space
    return [url for url in pushes if _url_key(url) % space not in hashes]
