"""Batched offline-resolution scheduler with a crawl budget.

The paper's servers "load each page periodically" (Sec 4.1.2); a fleet
cannot afford to load *every* page every period, so this scheduler
decides *which* pages get their stable sets recomputed, and when:

* Work arrives as :class:`ResolutionJob`s — one per (page, device
  class) — from cold misses, stale hits, and TTL expiries.  Duplicate
  enqueues coalesce onto the pending job.
* Jobs execute in **batches** at fixed period ticks, mirroring a cron
  of headless-browser crawlers.
* Each executed job costs ``loads_per_job`` page loads (the offline
  window intersects that many loads), and the batch spends from a
  **crawl budget** accrued at ``budget_loads_per_hour``.  Unspent
  credit banks up to one extra period — a real crawler fleet has a
  fixed size; it cannot save a quiet night for a busy morning.
* Within a batch, jobs are ordered by **staleness × popularity**: the
  entry's age (cold misses count as maximally stale) weighted by the
  request traffic the key has seen.  Ties break on the key, so the
  order is deterministic.

The scheduler never touches the clock or the store; the backend feeds
it ``now_hours``, popularity counts, and per-key staleness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

Key = Tuple[str, str]  # (page name, device class)

#: Staleness assigned to a key with no store entry at all: colder than
#: any stale entry, so cold misses win ties against refreshes.
COLD_STALENESS_HOURS = 1e6


@dataclass(slots=True)
class ResolutionJob:
    """One pending stable-set recomputation.

    Allocated per cold/stale lookup on the service hot path — slotted
    to keep that churn dict-free.
    """

    page: str
    device_class: str
    page_index: int
    enqueued_at_hours: float
    #: Why the job exists: "miss", "stale", or "expired".
    reason: str
    #: How many times the key was requested while the job sat queued.
    demand: int = 1

    @property
    def key(self) -> Key:
        return (self.page, self.device_class)


@dataclass
class SchedulerCounters:
    enqueued: int = 0
    coalesced: int = 0
    executed: int = 0
    #: Unique deferrals: a job is counted once per stretch it spends
    #: queued past a batch tick, not once per tick it sits there —
    #: cumulative re-counting made the number meaningless at fleet
    #: scale.  Re-deferral after an execution counts again (it is a new
    #: deferral).
    deferred: int = 0
    #: Largest pending-queue depth observed at any batch tick.
    pending_peak: int = 0
    loads_spent: int = 0
    budget_offered: float = 0.0

    def as_dict(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "deferred": self.deferred,
            "pending_peak": self.pending_peak,
            "loads_spent": self.loads_spent,
            "budget_offered": round(self.budget_offered, 6),
            "budget_utilization": (
                round(self.loads_spent / self.budget_offered, 6)
                if self.budget_offered
                else 0.0
            ),
        }


class BatchScheduler:
    """Priority-batched job queue under a loads/hour crawl budget."""

    def __init__(
        self,
        *,
        budget_loads_per_hour: float,
        batch_period_hours: float,
        loads_per_job: int,
    ):
        if budget_loads_per_hour <= 0:
            raise ValueError("crawl budget must be positive")
        if batch_period_hours <= 0:
            raise ValueError("batch period must be positive")
        if loads_per_job < 1:
            raise ValueError("a job costs at least one load")
        self.budget_loads_per_hour = budget_loads_per_hour
        self.batch_period_hours = batch_period_hours
        self.loads_per_job = loads_per_job
        self.counters = SchedulerCounters()
        self._pending: Dict[Key, ResolutionJob] = {}
        #: Keys already counted as deferred for their current queue stay.
        self._deferred_seen: set = set()
        self._credit = 0.0
        #: Credit cap: the current period's accrual plus one banked
        #: period — but never below one job's cost, or a budget smaller
        #: than ``loads_per_job`` per two periods would starve forever
        #: instead of merely running slowly.
        self._credit_cap = max(
            2.0 * budget_loads_per_hour * batch_period_hours,
            float(loads_per_job),
        )

    def enqueue(self, job: ResolutionJob) -> bool:
        """Add a job; a duplicate key coalesces (and bumps demand).

        Returns True when the job is new, False when coalesced.
        """
        existing = self._pending.get(job.key)
        if existing is not None:
            existing.demand += job.demand
            self.counters.coalesced += 1
            return False
        self._pending[job.key] = job
        self.counters.enqueued += 1
        return True

    def priority(
        self, job: ResolutionJob, staleness_hours: float
    ) -> float:
        """Staleness × log-damped popularity (requests while queued)."""
        return staleness_hours * (1.0 + math.log2(1.0 + job.demand))

    def take_batch(
        self,
        now_hours: float,
        staleness_of: Callable[[Key], Optional[float]],
    ) -> List[ResolutionJob]:
        """Jobs to run this tick, highest priority first, within budget.

        ``staleness_of`` maps a key to the age (hours) of its current
        store entry, or ``None`` when the store holds nothing — cold
        keys get :data:`COLD_STALENESS_HOURS`.
        """
        accrued = self.budget_loads_per_hour * self.batch_period_hours
        self._credit = min(self._credit + accrued, self._credit_cap)
        self.counters.budget_offered += accrued

        ranked = []
        for key in sorted(self._pending):
            job = self._pending[key]
            staleness = staleness_of(key)
            if staleness is None:
                staleness = COLD_STALENESS_HOURS
            ranked.append((-self.priority(job, staleness), key, job))
        ranked.sort()

        self.counters.pending_peak = max(
            self.counters.pending_peak, len(self._pending)
        )
        batch: List[ResolutionJob] = []
        for _, key, job in ranked:
            if self._credit < self.loads_per_job:
                break
            self._credit -= self.loads_per_job
            del self._pending[key]
            self._deferred_seen.discard(key)
            batch.append(job)
        self.counters.executed += len(batch)
        newly_deferred = [
            key for key in self._pending if key not in self._deferred_seen
        ]
        self.counters.deferred += len(newly_deferred)
        self._deferred_seen.update(newly_deferred)
        self.counters.loads_spent += len(batch) * self.loads_per_job
        return batch
