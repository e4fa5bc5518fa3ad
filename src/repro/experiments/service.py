"""Service experiments: crawl budget vs staleness, end to end.

The knob a Vroom operator actually controls is the **crawl budget** —
how many server-side page loads per hour the offline-resolution fleet
may spend.  This module sweeps that budget against *identical* traffic
(the workload is a pure function of its seed, independent of the store
or scheduler configuration) and reports what the budget buys:

* the stale-hit rate, which must fall monotonically as the budget
  grows (the driver's regression check);
* the accuracy bridge's precision/recall/PLT numbers for at least two
  budget settings, so the staleness cost is quantified in real loads
  rather than inferred from counters.

``service_benchmark`` assembles the whole ``BENCH_service.json``
payload: one full-scale run plus the budget sweep.  Everything here is
bit-identical under a fixed seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import audit
from repro.pages.corpus import news_sports_corpus
from repro.pages.page import PageBlueprint
from repro.replay.cache import SnapshotCache
from repro.service.backend import (
    HintService,
    ServiceConfig,
    chain_step,
    served_record,
)
from repro.service.bridge import BridgeSample, evaluate_samples
from repro.service.placement import (
    FleetLookup,
    PlacementMap,
    shard_outage_rule,
)
from repro.service.store import LookupStatus
from repro.service.workload import Lookup

#: Crawl budgets (page loads per simulated hour) swept by default.
DEFAULT_BUDGETS: Sequence[float] = (6.0, 15.0, 60.0)

#: Budgets whose sampled lookups get the full end-to-end bridge.
DEFAULT_BRIDGE_BUDGETS = 2


class LookupObserver:
    """The per-lookup instruments of one service run, on the
    ``on_lookup`` hook of :meth:`HintService.run_to`.  Each keeps only
    what it is asked for:

    * ``sample_every`` — a :class:`BridgeSample` of every Nth lookup,
      for the accuracy bridge;
    * ``window`` — the served tally of the lookups inside run-relative
      ``(begin, end)`` hours: how did serving hold up *during* an
      incident?
    * ``chain`` — the hex served-hint chain: ``""`` chained with
      :func:`~repro.service.backend.chain_step` over every lookup's
      :func:`~repro.service.backend.served_record`.

    A lookup's hour is ``start_hour + lookup.when_hours``, the hour
    :meth:`HintService.process_lookup` served it at.
    """

    def __init__(
        self,
        pages: List[PageBlueprint],
        config: ServiceConfig,
        *,
        sample_every: int = 0,
        window: Optional[Tuple[float, float]] = None,
        chain: bool = False,
    ):
        self.pages = pages
        self.start_hour = config.start_hour
        self.sample_every = sample_every
        self.window = window
        self.samples: List[BridgeSample] = []
        self.window_lookups = self.window_served = 0
        self.chain: Optional[str] = "" if chain else None

    def __call__(
        self, lookup: Lookup, result: FleetLookup, latency_ms: float
    ) -> None:
        now = self.start_hour + lookup.when_hours
        entry, status = result.entry, result.status
        served = status in (LookupStatus.HIT, LookupStatus.STALE_HIT)
        if self.window is not None:
            begin, end = self.window
            if begin <= now - self.start_hour < end:
                self.window_lookups += 1
                self.window_served += 1 if served else 0
        if self.chain is not None:
            urls = entry.payload.get("urls", []) if served and entry else []
            record = served_record(lookup, status, urls)
            self.chain = chain_step(self.chain, record)
        if self.sample_every and lookup.seq % self.sample_every == 0:
            self.samples.append(
                BridgeSample(
                    seq=lookup.seq,
                    when_hours=now,
                    page_index=lookup.page_index,
                    page=self.pages[lookup.page_index].name,
                    device_class=lookup.device_class,
                    user=lookup.user,
                    status=status.value,
                    computed_at_hours=(
                        entry.computed_at_hours if entry is not None else None
                    ),
                    payload=(entry.payload if entry is not None else None),
                )
            )

    def results(self) -> dict:
        """What was asked for, keyed ``samples``, ``window``, ``chain``."""
        out: dict = {}
        if self.sample_every:
            out["samples"] = list(self.samples)
        if self.window is not None:
            lookups, served = self.window_lookups, self.window_served
            out["window"] = {
                "begin_hours": self.window[0],
                "end_hours": self.window[1],
                "lookups": lookups,
                "served": served,
                "served_rate": round(served / lookups, 6) if lookups else 0.0,
            }
        if self.chain is not None:
            out["chain"] = self.chain
        return out


def observed_run(
    pages: List[PageBlueprint], config: ServiceConfig, **instruments
) -> dict:
    """Run a fresh service to its horizon under a :class:`LookupObserver`
    built with ``instruments``; return ``{"report": ...}`` plus only what
    was asked for (:meth:`LookupObserver.results`)."""
    observer = LookupObserver(pages, config, **instruments)
    service = HintService(pages, config)
    report = service.run_to(config.horizon_hours, observer).report()
    return {"report": report, **observer.results()}


def staleness_experiment(
    pages: Optional[List[PageBlueprint]] = None,
    *,
    count: int = 12,
    budgets: Sequence[float] = DEFAULT_BUDGETS,
    horizon_hours: float = 5.0,
    rate_per_hour: float = 4_000.0,
    freshness_hours: float = 0.5,
    ttl_hours: float = 6.0,
    seed: int = 0,
    bridge_sample_every: int = 2_000,
    bridge_budgets: int = DEFAULT_BRIDGE_BUDGETS,
    bridge_max_samples: int = 6,
    bridge_with_loads: bool = True,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """Sweep the crawl budget against one fixed workload.

    Returns ``{"budgets": [row...], "monotone_stale_hit_rate": bool}``.
    Each row carries the budget, the run's hit/stale-hit/miss rates and
    scheduler counters, and — for the first ``bridge_budgets`` budgets —
    the accuracy bridge's aggregate.  A fresh :class:`HintService` is
    built per budget (services hold per-run counters); the page fleet
    and workload seed are shared, so the traffic is identical and the
    stale-hit-rate column isolates the budget's effect.

    Runs are **prewarmed** (every key resolved once at the start hour):
    from a cold start, a starved budget turns would-be stale hits into
    misses, so the stale-hit rate rises *and then* falls with budget.
    Warm, the relationship is clean — more budget, fresher entries,
    monotonically fewer stale hits.
    """
    if pages is None:
        pages = news_sports_corpus(count)
    active_cache = cache if cache is not None else SnapshotCache()
    rows = []
    stale_rates = []
    for index, budget in enumerate(budgets):
        config = ServiceConfig(
            pages=len(pages),
            horizon_hours=horizon_hours,
            rate_per_hour=rate_per_hour,
            freshness_hours=freshness_hours,
            ttl_hours=ttl_hours,
            crawl_budget_per_hour=budget,
            prewarm=True,
            seed=seed,
        )
        sample_every = bridge_sample_every if index < bridge_budgets else 0
        run = observed_run(pages, config, sample_every=sample_every)
        totals = run["report"]["totals"]
        row = {
            "crawl_budget_per_hour": budget,
            "hit_rate": totals["hit_rate"],
            "fresh_hit_rate": totals["fresh_hit_rate"],
            "stale_hit_rate": totals["stale_hit_rate"],
            "miss_rate": totals["miss_rate"],
            "evictions": totals["evictions"],
            "scheduler": run["report"]["scheduler"],
        }
        if run.get("samples"):
            bridge = evaluate_samples(
                pages,
                run["samples"],
                max_samples=bridge_max_samples,
                with_loads=bridge_with_loads,
                cache=active_cache,
            )
            row["bridge"] = bridge["aggregate"]
        stale_rates.append(row["stale_hit_rate"])
        rows.append(row)
    monotone = all(
        later <= earlier + 1e-9
        for earlier, later in zip(stale_rates, stale_rates[1:])
    )
    return {"budgets": rows, "monotone_stale_hit_rate": monotone}


def _latency_slice(report_dict: dict) -> dict:
    """The SLO view of a run's merged latency histogram."""
    latency = report_dict["latency"]
    return {
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
        "p999_ms": latency["p999_ms"],
        "mean_ms": latency["mean_ms"],
        "overflow": latency["overflow"],
    }


def _totals_slice(report_dict: dict) -> dict:
    totals = report_dict["totals"]
    return {
        field: totals[field]
        for field in (
            "lookups",
            "hit_rate",
            "stale_hit_rate",
            "miss_rate",
            "unavailable",
            "failovers",
            "read_repairs",
            "frontend_hits",
            "evictions",
        )
    }


def _bridge_window(
    pages: List[PageBlueprint], run: dict, config: ServiceConfig, **bridge
) -> Optional[dict]:
    """The accuracy bridge's aggregate over the samples of an
    :func:`observed_run` that fell inside its window (None if none did)."""
    lo = config.start_hour + run["window"]["begin_hours"]
    hi = config.start_hour + run["window"]["end_hours"]
    inside = [s for s in run.get("samples", ()) if lo <= s.when_hours < hi]
    if not inside:
        return None
    return evaluate_samples(pages, inside, **bridge)["aggregate"]


def failover_experiment(
    pages: Optional[List[PageBlueprint]] = None,
    *,
    count: int = 12,
    horizon_hours: float = 3.0,
    rate_per_hour: float = 4_000.0,
    shards: int = 8,
    replications: Sequence[int] = (1, 2),
    down_at_hours: float = 1.0,
    up_at_hours: float = 2.25,
    freshness_hours: float = 1.0,
    ttl_hours: float = 8.0,
    crawl_budget_per_hour: float = 40.0,
    seed: int = 0,
    bridge_sample_every: int = 0,
    bridge_max_samples: int = 3,
    bridge_with_loads: bool = False,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """Kill the hottest page's primary shard mid-run, at each replication.

    One shard — the structural primary of the Zipf-head page — goes down
    for ``[down_at_hours, up_at_hours)`` (run-relative), losing its
    resident set; it heals empty.  The *same* workload and fault plan
    run once per replication factor: without replicas the victim's
    keyspace goes cold for the whole outage, with ``replication >= 2``
    reads fail over to the surviving copies and the served-hint rate
    barely moves.  Each row reports overall and in-window serving,
    p50/p99/p999 lookup latency, and — when sampling is on — the
    accuracy bridge's precision/recall over in-window lookups (the
    degraded-mode hint quality).
    """
    if pages is None:
        pages = news_sports_corpus(count)
    active_cache = cache if cache is not None else SnapshotCache()
    probe = ServiceConfig(pages=len(pages), shards=shards)
    victim = PlacementMap(shards, probe.vnodes).shard_for(
        HintService.page_url(pages[0])
    )
    start = probe.start_hour
    rule = shard_outage_rule(
        victim,
        down_at_hours=start + down_at_hours,
        up_at_hours=start + up_at_hours,
    )
    rows = []
    for replication in replications:
        config = ServiceConfig(
            pages=len(pages),
            horizon_hours=horizon_hours,
            rate_per_hour=rate_per_hour,
            shards=shards,
            replication=replication,
            freshness_hours=freshness_hours,
            ttl_hours=ttl_hours,
            crawl_budget_per_hour=crawl_budget_per_hour,
            prewarm=True,
            seed=seed,
            shard_fault_rules=(rule,),
        )
        run = observed_run(
            pages,
            config,
            sample_every=bridge_sample_every,
            window=(down_at_hours, up_at_hours),
        )
        report = run["report"]
        row = {
            "replication": replication,
            "totals": _totals_slice(report),
            "latency": _latency_slice(report),
            "window": run["window"],
            "health_events": report["placement"]["health_events"],
        }
        bridge = _bridge_window(
            pages,
            run,
            config,
            max_samples=bridge_max_samples,
            with_loads=bridge_with_loads,
            cache=active_cache,
        )
        if bridge is not None:
            row["bridge_window"] = bridge
        rows.append(row)
    return {
        "victim_shard": victim,
        "down_at_hours": down_at_hours,
        "up_at_hours": up_at_hours,
        "rows": rows,
    }


def flash_crowd_experiment(
    pages: Optional[List[PageBlueprint]] = None,
    *,
    count: int = 12,
    horizon_hours: float = 3.0,
    rate_per_hour: float = 4_000.0,
    shards: int = 8,
    replication: int = 1,
    flash_at_hours: float = 1.0,
    flash_duration_hours: float = 0.25,
    flash_multiplier: float = 8.0,
    flash_focus: float = 0.8,
    frontend_variants: Sequence[int] = (0, 4),
    freshness_hours: float = 1.0,
    ttl_hours: float = 8.0,
    crawl_budget_per_hour: float = 40.0,
    seed: int = 0,
    bridge_sample_every: int = 0,
    bridge_max_samples: int = 3,
    bridge_with_loads: bool = False,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """Breaking-news spike on the Zipf-head page, with/without mitigation.

    Inside the flash window arrivals clump at ``flash_multiplier`` times
    the base rate and ``flash_focus`` of them hit one page — all of that
    lands on a single ring segment, which is exactly the hot-shard
    problem.  The same spike runs once per frontend-cache variant
    (0 = unmitigated): the tiny per-frontend cache absorbs the head
    page's reads, which shows up as ``frontend_hits`` and a flatter
    p999.
    """
    if pages is None:
        pages = news_sports_corpus(count)
    active_cache = cache if cache is not None else SnapshotCache()
    rows = []
    for capacity in frontend_variants:
        config = ServiceConfig(
            pages=len(pages),
            horizon_hours=horizon_hours,
            rate_per_hour=rate_per_hour,
            shards=shards,
            replication=replication,
            freshness_hours=freshness_hours,
            ttl_hours=ttl_hours,
            crawl_budget_per_hour=crawl_budget_per_hour,
            prewarm=True,
            seed=seed,
            frontend_cache_entries=capacity,
            flash_at_hours=flash_at_hours,
            flash_duration_hours=flash_duration_hours,
            flash_multiplier=flash_multiplier,
            flash_focus=flash_focus,
        )
        run = observed_run(
            pages,
            config,
            sample_every=bridge_sample_every,
            window=(flash_at_hours, flash_at_hours + flash_duration_hours),
        )
        report = run["report"]
        row = {
            "frontend_cache_entries": capacity,
            "totals": _totals_slice(report),
            "latency": _latency_slice(report),
            "window": run["window"],
            "frontend": report.get("frontend"),
        }
        bridge = _bridge_window(
            pages,
            run,
            config,
            max_samples=bridge_max_samples,
            with_loads=bridge_with_loads,
            cache=active_cache,
        )
        if bridge is not None:
            row["bridge_window"] = bridge
        rows.append(row)
    return {
        "flash_at_hours": flash_at_hours,
        "flash_duration_hours": flash_duration_hours,
        "flash_multiplier": flash_multiplier,
        "rows": rows,
    }


def reshard_experiment(
    pages: Optional[List[PageBlueprint]] = None,
    *,
    count: int = 12,
    horizon_hours: float = 2.0,
    rate_per_hour: float = 4_000.0,
    shards: int = 4,
    replication: int = 2,
    reshard_at_hours: float = 0.6,
    reshard_points_per_tick: int = 8,
    freshness_hours: float = 1.0,
    ttl_hours: float = 8.0,
    crawl_budget_per_hour: float = 40.0,
    seed: int = 0,
    audited: bool = True,
) -> dict:
    """Add a shard under live traffic; prove nobody noticed.

    Two runs see the *identical* workload: a control at ``shards`` and a
    reshard run that begins adding shard ``shards`` at
    ``reshard_at_hours``, migrating a few ring segments per batch tick.
    Both runs chain the served-hint record of every lookup (its status
    and served URLs) — migration moves entries without touching payloads
    or ages, so the two chains must match bit-for-bit.  With ``audited`` the
    reshard run also verifies placement residency on every lookup
    (``REPRO_AUDIT`` machinery), so a wrong-shard routing mid-migration
    raises instead of skewing results.
    """
    if pages is None:
        pages = news_sports_corpus(count)

    def run(reshard: bool) -> dict:
        config = ServiceConfig(
            pages=len(pages),
            horizon_hours=horizon_hours,
            rate_per_hour=rate_per_hour,
            shards=shards,
            replication=replication,
            freshness_hours=freshness_hours,
            ttl_hours=ttl_hours,
            crawl_budget_per_hour=crawl_budget_per_hour,
            prewarm=True,
            seed=seed,
            reshard_add_at_hours=reshard_at_hours if reshard else None,
            reshard_points_per_tick=reshard_points_per_tick,
        )
        return observed_run(pages, config, chain=True)

    control = run(reshard=False)
    was_enabled = audit.ENABLED
    if audited:
        audit.enable()
    try:
        resharded = run(reshard=True)
    finally:
        if audited and not was_enabled:
            audit.disable()
    control_report = control["report"]
    reshard_report = resharded["report"]
    migration = reshard_report["placement"]["migration"]
    total_keys = 2 * len(pages)  # (page, device-class) keys
    return {
        "control_fingerprint": control["chain"],
        "reshard_fingerprint": resharded["chain"],
        "payloads_match": control["chain"] == resharded["chain"],
        "audited": audited,
        "migration": migration,
        "keys_moved_fraction": round(
            migration["keys_moved"] / total_keys, 6
        ),
        "shards_before": shards,
        "shards_after": len(reshard_report["placement"]["shards"]),
        "control_latency": _latency_slice(control_report),
        "reshard_latency": _latency_slice(reshard_report),
        "control_evictions": control_report["totals"]["evictions"],
        "reshard_evictions": reshard_report["totals"]["evictions"],
    }


def service_benchmark(
    pages: Optional[List[PageBlueprint]] = None,
    *,
    count: int = 50,
    horizon_hours: float = 5.0,
    rate_per_hour: float = 20_000.0,
    shards: int = 8,
    shard_memory_bytes: int = 256 * 1024,
    ttl_hours: float = 12.0,
    freshness_hours: float = 2.0,
    batch_period_hours: float = 0.25,
    crawl_budget_per_hour: float = 60.0,
    zipf_exponent: float = 1.1,
    seed: int = 0,
    bridge_sample_every: int = 10_000,
    budgets: Sequence[float] = DEFAULT_BUDGETS,
    scenarios: bool = True,
    cache: Optional[SnapshotCache] = None,
) -> dict:
    """The full ``BENCH_service.json`` payload.

    One full-scale service run (the headline counters), the
    crawl-budget staleness sweep on a smaller fleet, and the fleet
    scenarios (shard kill at each replication, flash crowd, live
    reshard).  Pure function of its arguments — no wall clock anywhere.
    """
    if pages is None:
        pages = news_sports_corpus(count)
    active_cache = cache if cache is not None else SnapshotCache()
    config = ServiceConfig(
        pages=len(pages),
        horizon_hours=horizon_hours,
        rate_per_hour=rate_per_hour,
        zipf_exponent=zipf_exponent,
        shards=shards,
        shard_memory_bytes=shard_memory_bytes,
        ttl_hours=ttl_hours,
        freshness_hours=freshness_hours,
        batch_period_hours=batch_period_hours,
        crawl_budget_per_hour=crawl_budget_per_hour,
        seed=seed,
    )
    run = observed_run(pages, config, sample_every=bridge_sample_every)
    payload = {"benchmark": "service", "report": run["report"]}
    if run.get("samples"):
        payload["bridge"] = evaluate_samples(
            pages,
            run["samples"],
            max_samples=6,
            cache=active_cache,
        )
    payload["staleness"] = staleness_experiment(
        budgets=budgets, seed=seed, cache=active_cache
    )
    if scenarios:
        payload["scenarios"] = {
            "kill_shard": failover_experiment(
                seed=seed,
                bridge_sample_every=500,
                cache=active_cache,
            ),
            "flash_crowd": flash_crowd_experiment(
                seed=seed,
                bridge_sample_every=500,
                cache=active_cache,
            ),
            "reshard": reshard_experiment(seed=seed, audited=True),
        }
    return payload


#: Smoke-check configuration: small, fast, and pinned.  CI runs the
#: ``repro service --smoke`` command and asserts these counters, so a
#: change to the store, scheduler, workload or hashing shows up as a
#: loud diff instead of silent drift.
SMOKE_CONFIG = ServiceConfig(
    pages=8,
    horizon_hours=2.5,
    rate_per_hour=2_000.0,
    freshness_hours=0.5,
    ttl_hours=6.0,
    crawl_budget_per_hour=24.0,
    seed=1701,
)

#: Golden counters for :data:`SMOKE_CONFIG` (asserted by ``--smoke``).
EXPECTED_SMOKE = {
    "lookups": 5078,
    "hits": 1231,
    "stale_hits": 2634,
    "misses": 1213,
    "evictions": 0,
    "hit_rate": 0.761126,
    "stale_hit_rate": 0.518708,
    # Fleet counters: the smoke config runs one replica, no faults, no
    # frontend cache — all of these must stay zero.
    "unavailable": 0,
    "failovers": 0,
    "read_repairs": 0,
    "frontend_hits": 0,
}


#: In-outage served-hint rate the replicated smoke run must clear — and
#: the unreplicated run must fall below (the Zipf head's primary is the
#: victim, so without replicas a visible slice of traffic goes cold).
KILL_SHARD_SERVED_FLOOR = 0.9


def smoke_run(cache: Optional[SnapshotCache] = None) -> dict:
    """Run the pinned smoke configuration; return its report dict."""
    del cache  # the smoke run records no engine loads
    pages = news_sports_corpus(SMOKE_CONFIG.pages)
    return HintService(pages, SMOKE_CONFIG).run()


def smoke_scenarios(cache: Optional[SnapshotCache] = None) -> dict:
    """Small pinned fleet scenarios riding along with the smoke run."""
    active_cache = cache if cache is not None else SnapshotCache()
    return {
        "kill_shard": failover_experiment(
            count=8,
            horizon_hours=1.5,
            rate_per_hour=2_000.0,
            down_at_hours=0.4,
            up_at_hours=1.0,
            seed=1701,
            bridge_sample_every=250,
            bridge_max_samples=2,
            bridge_with_loads=False,
            cache=active_cache,
        ),
        "flash_crowd": flash_crowd_experiment(
            count=8,
            horizon_hours=1.5,
            rate_per_hour=2_000.0,
            flash_at_hours=0.5,
            flash_duration_hours=0.15,
            seed=1701,
            cache=active_cache,
        ),
        "reshard": reshard_experiment(
            count=8,
            # At 1.25 h the migration stops after 3 steps, before it
            # moves a key; the 4th step, at 1.5 h, moves keys.
            horizon_hours=1.5,
            rate_per_hour=2_000.0,
            seed=1701,
            audited=True,
        ),
    }


def _scenario_problems(scenarios: dict) -> List[str]:
    """Invariant violations in a :func:`smoke_scenarios` payload."""
    problems = []
    by_replication = {
        row["replication"]: row for row in scenarios["kill_shard"]["rows"]
    }
    degraded = by_replication[1]["window"]["served_rate"]
    replicated = by_replication[2]["window"]["served_rate"]
    if replicated < KILL_SHARD_SERVED_FLOOR:
        problems.append(
            "kill_shard: replication=2 in-outage served rate "
            f"{replicated} below floor {KILL_SHARD_SERVED_FLOOR}"
        )
    if degraded >= KILL_SHARD_SERVED_FLOOR:
        problems.append(
            "kill_shard: replication=1 in-outage served rate "
            f"{degraded} should visibly degrade below "
            f"{KILL_SHARD_SERVED_FLOOR}"
        )
    if by_replication[2]["totals"]["failovers"] < 1:
        problems.append("kill_shard: replication=2 recorded no failovers")

    by_capacity = {
        row["frontend_cache_entries"]: row
        for row in scenarios["flash_crowd"]["rows"]
    }
    cached = by_capacity[max(by_capacity)]
    uncached = by_capacity[0]
    if cached["totals"]["frontend_hits"] < 1:
        problems.append("flash_crowd: frontend cache absorbed no reads")
    if uncached["totals"]["frontend_hits"] != 0:
        problems.append(
            "flash_crowd: capacity-0 run recorded frontend hits"
        )
    if cached["latency"]["p999_ms"] > uncached["latency"]["p999_ms"]:
        problems.append(
            "flash_crowd: frontend cache raised p999 "
            f"({cached['latency']['p999_ms']} > "
            f"{uncached['latency']['p999_ms']})"
        )

    reshard = scenarios["reshard"]
    if not reshard["payloads_match"]:
        problems.append(
            "reshard: served payload stream diverged from control "
            f"({reshard['reshard_fingerprint']} != "
            f"{reshard['control_fingerprint']})"
        )
    if not reshard["audited"]:
        problems.append("reshard: run was not audited")
    if reshard["shards_after"] != reshard["shards_before"] + 1:
        problems.append(
            "reshard: shard did not finish joining "
            f"({reshard['shards_before']} -> {reshard['shards_after']})"
        )
    if reshard["migration"]["keys_moved"] < 1:
        problems.append("reshard: migration moved no keys")
    return problems


def smoke_check(
    report: dict, scenarios: Optional[dict] = None
) -> List[str]:
    """Mismatches between a smoke report and the golden counters."""
    problems = []
    totals = report["totals"]
    for field, expected in EXPECTED_SMOKE.items():
        actual = totals.get(field)
        if actual != expected:
            problems.append(f"{field}: expected {expected!r}, got {actual!r}")
    if scenarios is not None:
        problems.extend(_scenario_problems(scenarios))
    return problems
