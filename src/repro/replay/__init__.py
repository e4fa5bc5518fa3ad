"""Record-and-replay harness (the Mahimahi stand-in).

Recording walks one materialised load of a page and stores every
request/response pair plus the per-domain RTT observed at record time.
Replaying builds one :class:`~repro.net.origin.OriginServer` per domain
that serves exactly the recorded bytes with the recorded latencies —
optionally decorated by a policy layer (Vroom, push strawmen) that adds
hints and pushes to responses.
"""

from repro.replay.store import ReplayStore
from repro.replay.recorder import record_snapshot
from repro.replay.replayer import build_servers

__all__ = [
    "ReplayStore",
    "record_snapshot",
    "build_servers",
]
