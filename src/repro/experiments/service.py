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

from typing import List, Optional, Sequence

from repro import audit
from repro.pages.corpus import news_sports_corpus
from repro.pages.page import PageBlueprint
from repro.replay.cache import SnapshotCache
from repro.service.backend import HintService, ServiceConfig
from repro.service.bridge import evaluate_samples
from repro.service.placement import PlacementMap, shard_outage_rule

#: Crawl budgets (page loads per simulated hour) swept by default.
DEFAULT_BUDGETS: Sequence[float] = (6.0, 15.0, 60.0)

#: Budgets whose sampled lookups get the full end-to-end bridge.
DEFAULT_BRIDGE_BUDGETS = 2


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
            bridge_sample_every=bridge_sample_every,
        )
        report = HintService(pages, config).run()
        row = {
            "crawl_budget_per_hour": budget,
            "hit_rate": report.totals["hit_rate"],
            "fresh_hit_rate": report.totals["fresh_hit_rate"],
            "stale_hit_rate": report.totals["stale_hit_rate"],
            "miss_rate": report.totals["miss_rate"],
            "evictions": report.totals["evictions"],
            "scheduler": report.scheduler,
        }
        if index < bridge_budgets and report.samples:
            bridge = evaluate_samples(
                pages,
                report.samples,
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


def _window_samples(report, config: ServiceConfig, begin: float, end: float):
    """Bridge samples that fell inside the run-relative window."""
    lo = config.start_hour + begin
    hi = config.start_hour + end
    return [s for s in report.samples if lo <= s.when_hours < hi]


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
            bridge_sample_every=bridge_sample_every,
            shard_fault_rules=(rule,),
            track_window=(down_at_hours, up_at_hours),
        )
        report = HintService(pages, config).run()
        report_dict = report.as_dict()
        row = {
            "replication": replication,
            "totals": _totals_slice(report_dict),
            "latency": _latency_slice(report_dict),
            "window": report_dict["window"],
            "health_events": report_dict["placement"]["health_events"],
        }
        degraded = _window_samples(report, config, down_at_hours, up_at_hours)
        if degraded:
            row["bridge_window"] = evaluate_samples(
                pages,
                degraded,
                max_samples=bridge_max_samples,
                with_loads=bridge_with_loads,
                cache=active_cache,
            )["aggregate"]
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
            bridge_sample_every=bridge_sample_every,
            frontend_cache_entries=capacity,
            flash_at_hours=flash_at_hours,
            flash_duration_hours=flash_duration_hours,
            flash_multiplier=flash_multiplier,
            flash_focus=flash_focus,
            track_window=(
                flash_at_hours,
                flash_at_hours + flash_duration_hours,
            ),
        )
        report = HintService(pages, config).run()
        report_dict = report.as_dict()
        row = {
            "frontend_cache_entries": capacity,
            "totals": _totals_slice(report_dict),
            "latency": _latency_slice(report_dict),
            "window": report_dict["window"],
            "frontend": report_dict.get("frontend"),
        }
        spike = _window_samples(
            report,
            config,
            flash_at_hours,
            flash_at_hours + flash_duration_hours,
        )
        if spike:
            row["bridge_window"] = evaluate_samples(
                pages,
                spike,
                max_samples=bridge_max_samples,
                with_loads=bridge_with_loads,
                cache=active_cache,
            )["aggregate"]
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
    Both runs chain a sha1 fingerprint over every served (status,
    payload) pair — migration moves entries without touching payloads or
    ages, so the streams must match bit-for-bit.  With ``audited`` the
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
            fingerprint=True,
            reshard_add_at_hours=reshard_at_hours if reshard else None,
            reshard_points_per_tick=reshard_points_per_tick,
        )
        return HintService(pages, config).run().as_dict()

    control = run(reshard=False)
    was_enabled = audit.ENABLED
    if audited:
        audit.enable()
    try:
        resharded = run(reshard=True)
    finally:
        if audited and not was_enabled:
            audit.disable()
    migration = resharded["placement"]["migration"]
    total_keys = 2 * len(pages)  # (page, device-class) keys
    return {
        "control_fingerprint": control["fingerprint"],
        "reshard_fingerprint": resharded["fingerprint"],
        "payloads_match": (
            control["fingerprint"] == resharded["fingerprint"]
        ),
        "audited": audited,
        "migration": migration,
        "keys_moved_fraction": round(
            migration["keys_moved"] / total_keys, 6
        ),
        "shards_before": shards,
        "shards_after": len(resharded["placement"]["shards"]),
        "control_latency": _latency_slice(control),
        "reshard_latency": _latency_slice(resharded),
        "control_evictions": control["totals"]["evictions"],
        "reshard_evictions": resharded["totals"]["evictions"],
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
        bridge_sample_every=bridge_sample_every,
    )
    report = HintService(pages, config).run()
    payload = {"benchmark": "service", "report": report.as_dict()}
    if report.samples:
        payload["bridge"] = evaluate_samples(
            pages,
            report.samples,
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
    bridge_sample_every=0,
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
    report = HintService(pages, SMOKE_CONFIG).run()
    return report.as_dict()


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
