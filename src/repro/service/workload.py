"""Seeded service workload: Zipf page popularity × Poisson arrivals.

Web request traffic is classically modelled as a Poisson arrival
process over a Zipf-distributed object popularity ("few pages take most
of the traffic"), and both halves matter to a hint store: Zipf skew
decides what stays resident under LRU, Poisson clumping decides queue
depth at the shards.

Everything draws from one ``random.Random(seed)`` instance in a fixed
order, so a workload is a pure function of its parameters: the same
seed yields the same lookup sequence no matter the store or budget
configuration — which is what lets the staleness experiment vary the
crawl budget against *identical* traffic.

The stream is unbounded and drawn one arrival at a time
(:meth:`Workload.next`); the service loop ends it at its horizon.  A
workload pickles mid-stream and continues identically, which is how a
long-run checkpoint carries its arrival stream.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True, slots=True)
class Lookup:
    """One hint request arriving at the service front door."""

    seq: int
    when_hours: float
    page_index: int
    device_class: str
    user: str


class ZipfPopularity:
    """Zipf(s) sampler over ``n`` ranks via inverse-CDF + bisect.

    Rank 0 is the most popular page.  ``weight(r) ∝ (r + 1) ** -s``;
    ``s = 0`` degenerates to uniform.
    """

    def __init__(self, n: int, exponent: float = 1.1):
        if n < 1:
            raise ValueError("need at least one page")
        if exponent < 0:
            raise ValueError("Zipf exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += (rank + 1) ** -exponent
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def weight(self, rank: int) -> float:
        return (rank + 1) ** -self.exponent / self._total

    def sample(self, uniform: float) -> int:
        """Rank for a uniform draw in [0, 1)."""
        return bisect_left(self._cumulative, uniform * self._total)


@dataclass(frozen=True)
class WorkloadConfig:
    """Traffic shape knobs."""

    pages: int
    #: Mean arrival rate (lookups per simulated hour).
    rate_per_hour: float = 20_000.0
    zipf_exponent: float = 1.1
    #: Share of requests from the phone device class (rest: tablet).
    phone_fraction: float = 0.85
    #: Distinct client identities cycled through the traffic.
    user_pool: int = 32
    seed: int = 0
    # -- flash crowd (breaking news concentrating on one page) -----------
    #: Hour (workload-relative) a flash crowd starts; None disables it.
    #: With it disabled the draw sequence is bit-identical to the
    #: pre-flash workload generator.
    flash_at_hours: Optional[float] = None
    flash_duration_hours: float = 0.1
    #: Arrival-rate multiplier inside the flash window.
    flash_multiplier: float = 10.0
    #: Probability an in-window arrival targets the flash page.
    flash_focus: float = 0.8
    #: Popularity rank of the page the crowd piles onto (0 = the head).
    flash_page_rank: int = 0


def expected_lookups(rate_per_hour: float, horizon_hours: float) -> int:
    """Expected stream length: the Poisson mean over the horizon."""
    return max(1, int(math.ceil(rate_per_hour * horizon_hours)))


class Workload:
    """Deterministic, unbounded lookup stream; ``next()`` draws one."""

    def __init__(self, config: WorkloadConfig):
        if config.rate_per_hour <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= config.phone_fraction <= 1.0:
            raise ValueError("phone fraction must be within [0, 1]")
        if config.flash_at_hours is not None:
            if config.flash_at_hours < 0:
                raise ValueError("flash start must be non-negative")
            if config.flash_duration_hours <= 0:
                raise ValueError("flash duration must be positive")
            if config.flash_multiplier <= 0:
                raise ValueError("flash multiplier must be positive")
            if not 0.0 <= config.flash_focus <= 1.0:
                raise ValueError("flash focus must be within [0, 1]")
            if not 0 <= config.flash_page_rank < config.pages:
                raise ValueError("flash page rank outside the fleet")
        self.config = config
        self.popularity = ZipfPopularity(config.pages, config.zipf_exponent)
        self._rng = random.Random(config.seed)
        self._mean_gap = 1.0 / config.rate_per_hour
        self._seq = 0
        #: Arrival time of the last lookup drawn (workload-relative).
        self._now = 0.0

    def _in_flash(self, now: float) -> bool:
        flash_at = self.config.flash_at_hours
        return (
            flash_at is not None
            and flash_at
            <= now
            < flash_at + self.config.flash_duration_hours
        )

    def next(self) -> Lookup:
        """Draw the next arrival: gap, page, device, user, in that order."""
        config = self.config
        rng = self._rng
        # Inside the flash window arrivals clump (rate × multiplier) and
        # concentrate on the flash page; the window test uses the
        # previous arrival's clock, so the draw order is fixed.
        if self._in_flash(self._now):
            self._now += rng.expovariate(
                config.flash_multiplier / self._mean_gap
            )
            if rng.random() < config.flash_focus:
                page_index = config.flash_page_rank
                rng.random()  # keep the per-arrival draw count fixed
            else:
                page_index = self.popularity.sample(rng.random())
        else:
            self._now += rng.expovariate(1.0 / self._mean_gap)
            page_index = self.popularity.sample(rng.random())
        device_class = (
            "phone" if rng.random() < config.phone_fraction else "tablet"
        )
        user = f"user{rng.randrange(config.user_pool)}"
        lookup = Lookup(
            seq=self._seq,
            when_hours=self._now,
            page_index=page_index,
            device_class=device_class,
            user=user,
        )
        self._seq += 1
        return lookup
