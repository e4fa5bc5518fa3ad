"""Recording: capture one materialised load of a page into a ReplayStore.

The paper records each page through Mahimahi by proxying a real phone load;
we record by walking the snapshot's resource tree (the snapshot *is* what a
load would fetch) and assigning each domain a stable pseudo-random RTT, as
Mahimahi preserves the median RTT it observed per server.
"""

from __future__ import annotations

import hashlib

from repro.calibration import SERVER_RTT_RANGE
from repro.pages.page import PageSnapshot
from repro.replay.store import ReplayStore


def domain_rtt(domain: str) -> float:
    """Deterministic per-domain server RTT within the calibrated range."""
    low, high = SERVER_RTT_RANGE
    digest = hashlib.sha1(domain.encode()).digest()
    fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return low + fraction * (high - low)


def record_snapshot(snapshot: PageSnapshot) -> ReplayStore:
    """Capture every exchange a load of ``snapshot`` performs.

    The store holds the snapshot's resources themselves and keeps no
    body text: a recorded body is its resource's ``body``, rendered when
    a reader first needs it.
    """
    store = ReplayStore(page=snapshot.page)
    for resource in snapshot.all_resources():
        store.add(resource, rtt=domain_rtt(resource.domain))
    return store
