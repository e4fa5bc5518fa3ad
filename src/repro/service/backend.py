"""The hint service itself: store + scheduler + workload on one clock.

:class:`HintService` simulates a multi-tenant Vroom hint-serving
backend for a fleet of pages.  Its clock counts **hours** (the
offline-resolution timescale), not the seconds a page load uses, and
:meth:`HintService.run_to` is its only event loop: it merges scheduler
ticks on the ``batch_period_hours`` grid with arrivals drawn one at a
time from the :class:`~repro.service.workload.Workload`, up to the
configured horizon.  The loop is resumable, so a caller may advance the
service in slices (the long-run harness closes its rollup windows
between them) and get the run an uninterrupted call would.

The operational loop per lookup:

1. Route the page URL through the consistent-hash ring to a shard.
2. ``HIT`` — serve the stored stable set.  ``STALE_HIT`` — serve it
   *and* enqueue a refresh (stale hints still beat no hints; the
   bridge quantifies the gap).  ``MISS``/``EXPIRED`` — serve **no
   hints** (the client falls back to vanilla HTTP/2 discovery, Vroom's
   graceful cold-start story) and enqueue a resolution job.
3. Record a deterministic lookup latency into the shard's histogram.

Every ``batch_period_hours`` the scheduler tick takes a batch within
the crawl budget and runs real offline resolutions
(:class:`~repro.core.offline.OfflineResolver`) at the tick's simulated
hour, inserting fresh entries into the store.  Entries therefore age
exactly as ``pages.dynamics`` rotates URLs underneath them, which is
what makes staleness *mean* something downstream.

A run is a pure function of its :class:`ServiceConfig`: repeated runs
produce bit-identical :class:`ServiceReport` dictionaries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import audit
from repro.calibration import DEFAULT_EVAL_HOUR, OFFLINE_WINDOW_LOADS
from repro.core.offline import OfflineResolver, stable_set_to_dict
from repro.net.faults import FaultPlan, FaultRule, fault_rule_to_dict
from repro.pages.page import PageBlueprint
from repro.service.bridge import BridgeSample
from repro.service.placement import FleetLookup, FleetStore
from repro.service.scheduler import BatchScheduler, ResolutionJob
from repro.service.store import (
    LatencyHistogram,
    LookupStatus,
    StoreConfig,
    StoreEntry,
    payload_size_bytes,
    stable_hash,
)
from repro.service.workload import (
    Lookup,
    Workload,
    WorkloadConfig,
    expected_lookups,
)

#: Per-lookup callback of :meth:`HintService.run_to`: the lookup, its
#: front-door outcome and the recorded latency in milliseconds.
LookupCallback = Callable[[Lookup, FleetLookup, float], None]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service run depends on (the seed included)."""

    # -- fleet ----------------------------------------------------------
    pages: int = 50
    # -- traffic --------------------------------------------------------
    #: Run-relative hour the traffic stops: the stream ends at the first
    #: arrival past it, and the last scheduler tick runs at or before it.
    horizon_hours: float = 5.0
    rate_per_hour: float = 20_000.0
    zipf_exponent: float = 1.1
    phone_fraction: float = 0.85
    user_pool: int = 32
    # -- store ----------------------------------------------------------
    shards: int = 8
    vnodes: int = 64
    shard_memory_bytes: int = 256 * 1024
    ttl_hours: float = 12.0
    freshness_hours: float = 2.0
    # -- fleet placement -------------------------------------------------
    #: Copies per entry: writes fan out to this many distinct shards,
    #: reads fail over along the same preference list.
    replication: int = 1
    #: Hot-key mitigation: entries in the per-frontend cache (0 = off).
    frontend_cache_entries: int = 0
    frontend_cache_ttl_hours: float = 0.05
    #: Shard outage windows, expressed as :class:`repro.net.faults`
    #: rules matched against the synthetic shard URLs (see
    #: :func:`repro.service.placement.shard_outage_rule`).  Times are
    #: absolute simulated hours (``start_hour``-based).
    shard_fault_rules: Tuple[FaultRule, ...] = ()
    fault_seed: int = 0
    #: Live resharding: add one shard this many hours into the run
    #: (None = never) and migrate this many ring segments per batch tick.
    reshard_add_at_hours: Optional[float] = None
    reshard_points_per_tick: int = 8
    # -- flash crowd -----------------------------------------------------
    flash_at_hours: Optional[float] = None
    flash_duration_hours: float = 0.1
    flash_multiplier: float = 10.0
    flash_focus: float = 0.8
    flash_page_rank: int = 0
    # -- extra instrumentation -------------------------------------------
    #: Run-relative (start, end) hours whose lookups are tallied
    #: separately — how did serving hold up *during* the incident?
    track_window: Optional[Tuple[float, float]] = None
    #: Chain a sha1 over every served (seq, status, payload URLs); the
    #: reshard experiment compares runs by this digest.
    fingerprint: bool = False
    # -- offline-resolution scheduler -----------------------------------
    batch_period_hours: float = 0.25
    crawl_budget_per_hour: float = 60.0
    #: Resolve every (page, device-class) key once at ``start_hour``
    #: before traffic begins (steady-state fleet rather than cold
    #: start).  The staleness sweep needs this: without it, starvation
    #: budgets turn would-be stale hits into misses and the
    #: budget→staleness relationship is confounded by coverage.
    prewarm: bool = False
    # -- time & determinism ---------------------------------------------
    start_hour: float = DEFAULT_EVAL_HOUR
    seed: int = 0
    # -- accuracy bridge -------------------------------------------------
    #: Sample every Nth lookup for end-to-end evaluation (0 disables).
    bridge_sample_every: int = 0

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            pages=self.pages,
            rate_per_hour=self.rate_per_hour,
            zipf_exponent=self.zipf_exponent,
            phone_fraction=self.phone_fraction,
            user_pool=self.user_pool,
            seed=self.seed,
            flash_at_hours=self.flash_at_hours,
            flash_duration_hours=self.flash_duration_hours,
            flash_multiplier=self.flash_multiplier,
            flash_focus=self.flash_focus,
            flash_page_rank=self.flash_page_rank,
        )

    def store(self) -> StoreConfig:
        return StoreConfig(
            shard_count=self.shards,
            vnodes=self.vnodes,
            shard_memory_bytes=self.shard_memory_bytes,
            ttl_hours=self.ttl_hours,
            freshness_hours=self.freshness_hours,
            replication=self.replication,
            frontend_cache_entries=self.frontend_cache_entries,
            frontend_cache_ttl_hours=self.frontend_cache_ttl_hours,
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        if not self.shard_fault_rules:
            return None
        return FaultPlan(seed=self.fault_seed, rules=self.shard_fault_rules)

    def as_dict(self) -> dict:
        return {
            "pages": self.pages,
            "horizon_hours": self.horizon_hours,
            "rate_per_hour": self.rate_per_hour,
            "zipf_exponent": self.zipf_exponent,
            "phone_fraction": self.phone_fraction,
            "user_pool": self.user_pool,
            "shards": self.shards,
            "vnodes": self.vnodes,
            "shard_memory_bytes": self.shard_memory_bytes,
            "ttl_hours": self.ttl_hours,
            "freshness_hours": self.freshness_hours,
            "batch_period_hours": self.batch_period_hours,
            "crawl_budget_per_hour": self.crawl_budget_per_hour,
            "prewarm": self.prewarm,
            "start_hour": self.start_hour,
            "seed": self.seed,
            "bridge_sample_every": self.bridge_sample_every,
            "replication": self.replication,
            "frontend_cache_entries": self.frontend_cache_entries,
            "frontend_cache_ttl_hours": self.frontend_cache_ttl_hours,
            "shard_fault_rules": [
                fault_rule_to_dict(rule) for rule in self.shard_fault_rules
            ],
            "fault_seed": self.fault_seed,
            "reshard_add_at_hours": self.reshard_add_at_hours,
            "reshard_points_per_tick": self.reshard_points_per_tick,
            "flash_at_hours": self.flash_at_hours,
            "flash_duration_hours": self.flash_duration_hours,
            "flash_multiplier": self.flash_multiplier,
            "flash_focus": self.flash_focus,
            "flash_page_rank": self.flash_page_rank,
            "track_window": (
                list(self.track_window) if self.track_window else None
            ),
            "fingerprint": self.fingerprint,
        }


def tenant_of(page_name: str) -> str:
    """Tenant (site operator) a page belongs to: its name sans index."""
    return page_name.rstrip("0123456789") or page_name


@dataclass
class ServiceReport:
    """Counters and distributions from one service run."""

    config: dict
    duration_hours: float
    totals: dict
    latency: dict
    shards: List[dict]
    tenants: Dict[str, dict]
    scheduler: dict
    #: Hit rate per tenth of the expected lookup stream — the warm-up
    #: curve.
    warmup_hit_rate: List[float]
    #: Placement-map state: version, replication, health events,
    #: migration counters.
    placement: dict = field(default_factory=dict)
    #: Per-frontend hot-key cache counters (None when disabled).
    frontend: Optional[dict] = None
    #: Serving stats inside ``config.track_window`` (None when unset).
    window: Optional[dict] = None
    #: sha1 chain over the served hint stream (None when disabled).
    fingerprint: Optional[str] = None
    samples: List[BridgeSample] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.totals["hit_rate"]

    @property
    def stale_hit_rate(self) -> float:
        return self.totals["stale_hit_rate"]

    def as_dict(self) -> dict:
        """JSON-ready form; deterministic modulo nothing (no wall clock)."""
        out = {
            "config": self.config,
            "duration_hours": round(self.duration_hours, 6),
            "totals": self.totals,
            "latency": self.latency,
            "shards": self.shards,
            "tenants": {
                tenant: self.tenants[tenant]
                for tenant in sorted(self.tenants)
            },
            "scheduler": self.scheduler,
            "warmup_hit_rate": self.warmup_hit_rate,
            "placement": self.placement,
        }
        if self.frontend is not None:
            out["frontend"] = self.frontend
        if self.window is not None:
            out["window"] = self.window
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        return out


class HintService:
    """One simulated hint-serving backend over a fixed page fleet."""

    def __init__(self, pages: List[PageBlueprint], config: ServiceConfig):
        if not pages:
            raise ValueError("the service needs a non-empty page fleet")
        if len(pages) != config.pages:
            raise ValueError(
                f"config says {config.pages} pages, fleet has {len(pages)}"
            )
        if config.horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        self.pages = pages
        self.config = config
        self.store = FleetStore(
            config.store(), fault_plan=config.fault_plan()
        )
        self.scheduler = BatchScheduler(
            budget_loads_per_hour=config.crawl_budget_per_hour,
            batch_period_hours=config.batch_period_hours,
            loads_per_job=OFFLINE_WINDOW_LOADS,
        )
        self._page_by_name = {page.name: page for page in pages}
        self._resolvers: Dict[str, OfflineResolver] = {}
        self._samples: List[BridgeSample] = []
        self._tenants: Dict[str, dict] = {}
        #: page index -> tenant key, precomputed: ``tenant_of`` strips
        #: digits per call, and the lookup handler runs per arrival.
        #: Tenant rows stay lazily created so the report still lists
        #: only tenants that actually saw traffic.
        self._tenant_keys = [tenant_of(page.name) for page in pages]
        self.workload = Workload(config.workload())
        #: Run-relative hours the loop has advanced to.
        self.clock = 0.0
        self._begun = False
        #: The one drawn-but-unserved arrival; past the horizon it is
        #: never served and nothing more is drawn.
        self._pending = self.workload.next()
        self._ticks_done = 0
        #: Per-decile (hits+stale_hits, lookups) for the warm-up curve;
        #: deciles split the expected stream length.
        self._decile_served = [0] * 10
        self._decile_lookups = [0] * 10
        self._expected_lookups = expected_lookups(
            config.rate_per_hour, config.horizon_hours
        )
        #: Latency samples with no shard behind them: frontend-cache
        #: hits and fully unavailable keys.
        self._front_latency = LatencyHistogram()
        self._window_lookups = 0
        self._window_served = 0
        self._fingerprint = hashlib.sha1() if config.fingerprint else None
        self._reshard_started = False

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def page_url(page: PageBlueprint) -> str:
        """The routing key: the page's canonical URL."""
        return f"{page.name}.com/"

    def _resolver(self, page_name: str) -> OfflineResolver:
        resolver = self._resolvers.get(page_name)
        if resolver is None:
            resolver = OfflineResolver(self._page_by_name[page_name])
            self._resolvers[page_name] = resolver
        return resolver

    #: Per-attempt deadline a front end spends on a fully-down key (ms).
    UNAVAILABLE_TIMEOUT_MS = 5.0

    def _lookup_latency_ms(self, result: FleetLookup, seq: int) -> float:
        """Deterministic per-lookup service latency (milliseconds).

        Base dispatch cost, a logarithmic occupancy term (index walk),
        a heavy-tailed deterministic jitter drawn from a sha1 of the
        sequence number — giving a realistic p50≪p99 spread that is
        bit-identical across runs — plus one extra hop per replica
        probed past the first.  Frontend-cache hits skip the shard walk
        entirely; a fully unavailable key burns the probe timeout.
        """
        draw = (stable_hash(f"lat{seq}") % 10_000) / 10_000.0
        if result.unavailable:
            return self.UNAVAILABLE_TIMEOUT_MS
        if result.frontend:
            return 0.02 + 0.005 * draw
        base = 0.15
        occupancy = 0.02 * math.log2(1.0 + len(result.shard))
        jitter = 0.05 * draw + 4.0 * draw ** 12
        extra_hops = 0.12 * (result.probes - 1)
        return base + occupancy + jitter + extra_hops

    # -- event handlers ---------------------------------------------------

    # repro: hotpath
    def process_lookup(
        self, lookup: Lookup, now_hours: float
    ) -> Tuple[FleetLookup, float]:
        """Serve one lookup at an absolute simulated hour.

        Returns the front-door :class:`FleetLookup` outcome and the
        recorded latency in milliseconds.
        """
        page = self.pages[lookup.page_index]
        self.store.sync_health(now_hours)
        result = self.store.lookup(
            self.page_url(page), page.name, lookup.device_class, now_hours
        )
        entry, status = result.entry, result.status
        latency_ms = self._lookup_latency_ms(result, lookup.seq)
        if result.shard is not None:
            result.shard.latency.record(latency_ms)
        else:
            self._front_latency.record(latency_ms)

        served = status in (LookupStatus.HIT, LookupStatus.STALE_HIT)
        if self._fingerprint is not None:
            urls = (
                ",".join(sorted(entry.payload.get("urls", [])))
                if entry is not None
                else ""
            )
            self._fingerprint.update(
                f"{lookup.seq}|{status.value if served else 'cold'}|{urls}\n"
                .encode()
            )
        if self.config.track_window is not None:
            begin, end = self.config.track_window
            relative = now_hours - self.config.start_hour
            if begin <= relative < end:
                self._window_lookups += 1
                self._window_served += 1 if served else 0

        tenant_key = self._tenant_keys[lookup.page_index]
        tenant = self._tenants.get(tenant_key)
        if tenant is None:
            # First traffic for this tenant: build its row once, instead
            # of allocating a throwaway default dict on every lookup.
            # repro: allow[PERF401] runs once per tenant, behind the
            # None guard — not per lookup.
            tenant = self._tenants[tenant_key] = {
                "lookups": 0, "hits": 0, "stale_hits": 0, "misses": 0,
            }
        tenant["lookups"] += 1
        decile = min(9, lookup.seq * 10 // self._expected_lookups)
        self._decile_lookups[decile] += 1

        if status is LookupStatus.HIT:
            tenant["hits"] += 1
            self._decile_served[decile] += 1
        elif status is LookupStatus.STALE_HIT:
            tenant["stale_hits"] += 1
            self._decile_served[decile] += 1
            self.scheduler.enqueue(
                ResolutionJob(
                    page=page.name,
                    device_class=lookup.device_class,
                    page_index=lookup.page_index,
                    enqueued_at_hours=now_hours,
                    reason="stale",
                )
            )
        else:  # MISS or EXPIRED: cold start — serve no hints, resolve.
            tenant["misses"] += 1
            self.scheduler.enqueue(
                ResolutionJob(
                    page=page.name,
                    device_class=lookup.device_class,
                    page_index=lookup.page_index,
                    enqueued_at_hours=now_hours,
                    reason=(
                        "expired"
                        if status is LookupStatus.EXPIRED
                        else "miss"
                    ),
                )
            )

        every = self.config.bridge_sample_every
        if every > 0 and lookup.seq % every == 0:
            self._samples.append(
                BridgeSample(
                    seq=lookup.seq,
                    when_hours=now_hours,
                    page_index=lookup.page_index,
                    page=page.name,
                    device_class=lookup.device_class,
                    user=lookup.user,
                    status=status.value,
                    computed_at_hours=(
                        entry.computed_at_hours if entry is not None else None
                    ),
                    payload=(entry.payload if entry is not None else None),
                )
            )
        return result, latency_ms

    def _staleness_of(
        self, key: Tuple[str, str], now_hours: float
    ) -> Optional[float]:
        page_name, device_class = key
        page = self._page_by_name[page_name]
        entry = self.store.peek(self.page_url(page), key)
        if entry is None:
            return None
        age = entry.age_hours(now_hours)
        if age > self.config.ttl_hours:
            # The store will refuse to serve it: an expired-but-not-yet-
            # dropped entry must rank as cold, not *below* cold misses.
            return None
        return age

    def _install_entry(
        self, page_name: str, device_class: str, now_hours: float
    ) -> None:
        """Resolve one key at ``now_hours`` and insert it into the store."""
        resolver = self._resolver(page_name)
        stable = resolver.stable_set(round(now_hours, 6), device_class)
        payload = stable_set_to_dict(stable)
        entry = StoreEntry(
            page=page_name,
            device_class=device_class,
            payload=payload,
            computed_at_hours=round(now_hours, 6),
            size_bytes=payload_size_bytes(payload),
        )
        self.store.insert(self.page_url(self._page_by_name[page_name]), entry)

    def _prewarm(self) -> None:
        """Populate every (page, device-class) key at the start hour."""
        for page in self.pages:
            for device_class in ("phone", "tablet"):
                self._install_entry(
                    page.name, device_class, self.config.start_hour
                )

    def process_batch(self, now_hours: float) -> None:
        """Run one scheduler tick (health sync, reshard step, batch).

        Then drop the resolvers' memoised stable sets: they are keyed by
        resolution hour and every tick resolves at a fresh one, so over
        a long horizon the memo tables would only grow, never hit.
        """
        self.store.sync_health(now_hours)
        self._drive_reshard(now_hours)
        batch = self.scheduler.take_batch(
            now_hours, lambda key: self._staleness_of(key, now_hours)
        )
        for job in batch:
            self._install_entry(job.page, job.device_class, now_hours)
        for resolver in self._resolvers.values():
            resolver.trim_cache()

    def _drive_reshard(self, now_hours: float) -> None:
        """Advance the configured live reshard, a few segments per tick."""
        reshard_at = self.config.reshard_add_at_hours
        if reshard_at is None:
            return
        if now_hours - self.config.start_hour < reshard_at:
            return
        if not self._reshard_started:
            self.store.begin_add_shard()
            self._reshard_started = True
        if self.store.reshard_pending():
            self.store.reshard_step(self.config.reshard_points_per_tick)

    # -- the loop ---------------------------------------------------------

    # repro: hotpath
    def run_to(
        self, until_hours: float, on_lookup: Optional[LookupCallback] = None
    ) -> "HintService":
        """Advance to run-relative hour ``until_hours`` (clamped to the
        horizon), serving every event at or before it.

        Events run in time order; at equal times the scheduler tick runs
        before the arrival.  Ticks sit on the ``batch_period_hours``
        grid, and the stream ends at the first arrival past the horizon.
        ``on_lookup`` sees every lookup served in this call, right after
        :meth:`process_lookup`.  Resumable: any sequence of calls ending
        at the horizon gives the report of one call to the horizon.
        """
        config = self.config
        until = min(until_hours, config.horizon_hours)
        if until < self.clock:
            raise ValueError(
                f"cannot run backwards: at {self.clock}h, asked {until}h"
            )
        if not self._begun:
            self._begun = True
            self.store.sync_health(config.start_hour)
            if config.prewarm:
                self._prewarm()
        start = config.start_hour
        period = config.batch_period_hours
        next_tick = (self._ticks_done + 1) * period
        pending = self._pending
        while True:
            arrival = pending.when_hours
            tick = next_tick <= arrival
            when = next_tick if tick else arrival
            if when > until:
                break
            if audit.ENABLED:
                audit.clock_monotonic(self.clock, when, "service event")
            self.clock = when
            if tick:
                self.process_batch(start + when)
                self._ticks_done += 1
                next_tick = (self._ticks_done + 1) * period
            else:
                result, latency_ms = self.process_lookup(pending, start + when)
                if on_lookup is not None:
                    on_lookup(pending, result, latency_ms)
                pending = self._pending = self.workload.next()
        self.clock = until
        return self

    def run(self) -> ServiceReport:
        """Drive a fresh service to its horizon; return the report."""
        if self._begun:
            raise RuntimeError(
                "a HintService holds per-run counters; build a fresh one "
                "per run"
            )
        return self.run_to(self.config.horizon_hours).report()

    def report(self) -> ServiceReport:
        """The report of everything served up to the current clock."""
        totals = self.store.totals()
        lookups = totals["lookups"]
        served = totals["hits"] + totals["stale_hits"]
        totals["hit_rate"] = round(served / lookups, 6) if lookups else 0.0
        totals["fresh_hit_rate"] = (
            round(totals["hits"] / lookups, 6) if lookups else 0.0
        )
        totals["stale_hit_rate"] = (
            round(totals["stale_hits"] / lookups, 6) if lookups else 0.0
        )
        totals["miss_rate"] = (
            round((totals["misses"] + totals["expired"]) / lookups, 6)
            if lookups
            else 0.0
        )

        shard_rows = []
        for shard in self.store.shard_list():
            row = {"shard": shard.index, "entries": len(shard)}
            row["retired"] = shard.index not in self.store.shards
            row["down"] = shard.index in self.store.down
            row.update(shard.counters.as_dict())
            row.update(shard.latency.summary())
            shard_rows.append(row)
        merged = LatencyHistogram.merged(
            [shard.latency for shard in self.store.shard_list()]
            + [self._front_latency]
        )

        warmup = []
        for served_d, lookups_d in zip(
            self._decile_served, self._decile_lookups
        ):
            warmup.append(
                round(served_d / lookups_d, 6) if lookups_d else 0.0
            )

        window = None
        if self.config.track_window is not None:
            window = {
                "begin_hours": self.config.track_window[0],
                "end_hours": self.config.track_window[1],
                "lookups": self._window_lookups,
                "served": self._window_served,
                "served_rate": (
                    round(self._window_served / self._window_lookups, 6)
                    if self._window_lookups
                    else 0.0
                ),
            }

        return ServiceReport(
            config=self.config.as_dict(),
            duration_hours=self.clock,
            totals=totals,
            latency=merged.summary(),
            shards=shard_rows,
            tenants=self._tenants,
            scheduler=self.scheduler.counters.as_dict(),
            warmup_hit_rate=warmup,
            placement=self.store.placement_summary(),
            frontend=(
                self.store.frontend.as_dict()
                if self.store.frontend is not None
                else None
            ),
            window=window,
            fingerprint=(
                self._fingerprint.hexdigest()
                if self._fingerprint is not None
                else None
            ),
            samples=list(self._samples),
        )
