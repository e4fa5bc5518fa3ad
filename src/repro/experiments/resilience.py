"""Resilience study: fault intensity × configuration.

Vroom's hints and pushes come from servers whose dependency knowledge can
be stale or wrong (PAPER Secs 4.2, 6.4), and measurements of deployed
HTTP/2 push report failures and wasted transfers as the norm.  This study
injects a seeded :func:`~repro.net.faults.hint_fault_plan` — server
errors, response stalls, and connection drops aimed at hint-driven
prefetches — at increasing intensities, with client-side timeouts and
exponential-backoff retries enabled, and reports both the PLT
distribution and the resilience counters per configuration.

The zero-rate point doubles as a regression guard: an empty fault plan
performs no rolls, so its loads are bit-identical to an unfaulted sweep.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional, Sequence

from repro.experiments.parallel import load_matrix
from repro.net.faults import ResiliencePolicy, hint_fault_plan
from repro.net.http import NetworkConfig
from repro.pages.corpus import news_sports_corpus
from repro.replay.cache import SnapshotCache

#: Hint-fetch failure probabilities swept by default (0 = control).
DEFAULT_FAULT_RATES: Sequence[float] = (0.0, 0.05, 0.10, 0.20)

#: Configurations compared by default: the hint-free baseline (faults
#: target hints, so it is a control) and full Vroom.
DEFAULT_CONFIGS: Sequence[str] = ("http2", "vroom")

DEFAULT_RESILIENCE = ResiliencePolicy(
    request_timeout=5.0, max_retries=2, retry_backoff=0.25
)

#: Counters accumulated across a sweep, straight off LoadMetrics.
COUNTER_FIELDS = (
    "retries",
    "timeouts",
    "connection_drops",
    "error_responses",
    "failed_fetches",
    "fault_wasted_bytes",
)


def resilience_sweep(
    count: int = 6,
    rates: Sequence[float] = DEFAULT_FAULT_RATES,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    resilience: ResiliencePolicy = DEFAULT_RESILIENCE,
    seed: int = 0,
    workers: Optional[int] = None,
    snapshots: Optional[SnapshotCache] = None,
) -> Dict[float, Dict[str, dict]]:
    """Sweep fault intensity × configuration.

    Returns ``{rate: {config: row}}`` where each row carries the per-page
    ``"plt"`` list plus the summed resilience counters.  Snapshots are
    fault-independent, so every rate shares one (snapshot, store) pair
    per page through ``snapshots`` (default: a private cache).
    """
    pages = news_sports_corpus(count)
    snapshots = snapshots if snapshots is not None else SnapshotCache()
    out: Dict[float, Dict[str, dict]] = {}
    for rate in rates:
        run = load_matrix(
            pages,
            configs,
            workers=workers,
            snapshots=snapshots,
            network=NetworkConfig(
                fault_plan=hint_fault_plan(rate, seed=seed),
                **asdict(resilience),
            ),
        )
        out[rate] = {
            config: {
                "plt": run.series(config),
                **{
                    field: sum(run.series(config, field))
                    for field in COUNTER_FIELDS
                },
            }
            for config in configs
        }
    return out
