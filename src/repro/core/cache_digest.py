"""Cache digests: telling servers what the client already has.

The paper (Sec 3.1, footnote 2) notes that PUSH's classic
bandwidth-wastage problem — pushing content the client has cached — can
be solved by the client summarising its cache to servers, e.g. in a
cookie, the way H2O's CASPer does.  This module implements that summary
as a Golomb-ish hashed set (a simplified cache digest per the IETF
``draft-ietf-httpbis-cache-digest`` design): compact, probabilistic, with
one-sided error — a digest hit may be a false positive, a miss never is.

The engine consults the digest through ``HttpClient.is_cached``; servers
then skip pushes for digest hits.  A false positive therefore suppresses
a useful push (costing a round trip later), never corrupts a load — the
same failure mode as the real mechanism.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable, List, Set


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
        self._space = max(1, self.entry_count) * (2 ** bits_per_entry)
        self._hashes: Set[int] = {self._hash(url) for url in url_list}

    def _hash(self, url: str) -> int:
        return _url_key(url) % self._space

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
    """Drop pushes the digest claims the client already holds."""
    return [url for url in pushes if url not in digest]
