"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``load``      simulate one page under one or more configurations
``waterfall`` render a page load as a text waterfall
``audit``     show what a Vroom server would return for a page
``lint``      run the determinism & layering analyzer over ``src/repro``
``figure``    regenerate one of the paper's figures (``--workers`` fans
              its sweeps out over processes)
``sweep``     run a corpus × configs sweep on the parallel engine and
              print per-config medians plus throughput
``resilience`` sweep hint-fetch fault intensity × configs and print PLT
              medians plus retry/timeout/failure counters
``service``   simulate the multi-tenant hint-serving backend (sharded
              store + offline-resolution scheduler) and write
              ``BENCH_service.json``
``longrun``   continuous-operation harness: stream a declarative
              :class:`~repro.scenario.spec.ScenarioSpec` through the
              service for simulated days with checkpoint/resume and
              paired A/B lanes; writes ``BENCH_longrun.json``
``bench``     engine micro-benchmarks; ``bench engine`` compares the
              reference and fast engines and writes ``BENCH_engine.json``
``configs``   list the available named configurations
``profiles``  list the available network profiles

The simulation commands (``load``, ``waterfall``, ``report``) accept
``--audit`` to arm the runtime invariant audit (:mod:`repro.audit`) for
the run; ``REPRO_AUDIT=1`` in the environment does the same.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.stats import Cdf
from repro.analysis.waterfall import render_waterfall, summarize_phases
from repro.baselines.configs import CONFIG_NAMES, run_config
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.net.http import ENGINES
from repro.pages.corpus import (
    accuracy_corpus,
    alexa_top100_corpus,
    alexa_top400_sample_corpus,
    news_sports_corpus,
)
from repro.pages.dynamics import LoadStamp
from repro.replay.recorder import record_snapshot

CORPORA = {
    "news": news_sports_corpus,
    "alexa100": alexa_top100_corpus,
    "alexa400": alexa_top400_sample_corpus,
    "accuracy": accuracy_corpus,
}


def _corpus_or_exit(corpus: str, count: int):
    """Build a corpus for a command, or explain why it can't.

    Returns the page list, or ``None`` after printing a clear error to
    stderr — the caller exits non-zero instead of crashing deep inside
    an experiment with a bare IndexError.
    """
    if count < 1:
        print(
            f"error: page count must be >= 1 (got {count})",
            file=sys.stderr,
        )
        return None
    builder = CORPORA.get(corpus)
    if builder is None:
        print(
            f"error: unknown corpus {corpus!r} "
            f"(available: {', '.join(sorted(CORPORA))})",
            file=sys.stderr,
        )
        return None
    pages = builder(count=count)
    if not pages:
        print(
            f"error: corpus {corpus!r} produced no pages for count={count}",
            file=sys.stderr,
        )
        return None
    return pages


def _page(args):
    if getattr(args, "blueprint", None):
        from repro.pages.serialization import load_blueprint

        return load_blueprint(args.blueprint)
    corpus = CORPORA[args.corpus](count=args.index + 1)
    return corpus[args.index]


def _stamp(args) -> LoadStamp:
    return LoadStamp(
        when_hours=DEFAULT_EVAL_HOUR,
        device=args.device,
        user=args.user,
    )


def _maybe_enable_audit(args) -> None:
    if getattr(args, "audit", False):
        from repro import audit

        audit.enable()


def _add_audit_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit",
        action="store_true",
        help="arm the runtime invariant audit (repro.audit) for this run",
    )


def _add_page_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", choices=sorted(CORPORA), default="news",
        help="which synthetic corpus to draw the page from",
    )
    parser.add_argument(
        "--index", type=int, default=0, help="page index within the corpus"
    )
    parser.add_argument("--device", default="nexus6")
    parser.add_argument("--user", default="user0")
    parser.add_argument(
        "--blueprint",
        default=None,
        help="load the page from a blueprint JSON file instead of a corpus",
    )


def cmd_load(args) -> int:
    _maybe_enable_audit(args)
    page = _page(args)
    snapshot = page.materialize(_stamp(args))
    store = record_snapshot(snapshot)
    print(
        f"page {page.name!r}: {len(snapshot.all_resources())} resources, "
        f"{snapshot.total_bytes() / 1e6:.2f} MB, "
        f"{len(snapshot.domains())} domains"
    )
    print(f"{'config':<24} {'PLT':>7} {'AFT':>7} {'SI':>7} {'waste':>8}")
    for config in args.configs:
        metrics = run_config(config, page, snapshot, store)
        print(
            f"{config:<24} {metrics.plt:6.2f}s {metrics.aft:6.2f}s "
            f"{metrics.speed_index:6.0f} {metrics.wasted_bytes / 1e3:6.0f}KB"
        )
    return 0


def cmd_waterfall(args) -> int:
    _maybe_enable_audit(args)
    page = _page(args)
    snapshot = page.materialize(_stamp(args))
    store = record_snapshot(snapshot)
    metrics = run_config(args.config, page, snapshot, store)
    print(render_waterfall(metrics, max_rows=args.rows))
    print()
    for key, value in summarize_phases(metrics).items():
        print(f"{key:<34} {value:,.3f}" if isinstance(value, float) else
              f"{key:<34} {value}")
    return 0


def cmd_audit(args) -> int:
    from repro.analysis.accuracy import predictable_partition, score_strategy
    from repro.core.resolver import ResolutionStrategy, VroomResolver
    from repro.pages.resources import Priority

    page = _page(args)
    stamp = _stamp(args)
    snapshot = page.materialize(stamp)
    resolver = VroomResolver(page)
    bundle = resolver.hints_for(snapshot.root, as_of_hours=stamp.when_hours)
    print(f"hints on {snapshot.root.url}:")
    for priority in Priority:
        urls = [h.url for h in bundle.by_priority(priority)]
        print(f"  {priority.name}: {len(urls)} URLs")
        for url in urls[: args.rows]:
            print(f"    {url}")
        if len(urls) > args.rows:
            print(f"    ... {len(urls) - args.rows} more")
    predictable, unpredictable, _ = predictable_partition(page, stamp)
    print(
        f"\npredictable subset: {len(predictable)} URLs; "
        f"left to client: {len(unpredictable)}"
    )
    result = score_strategy(page, stamp, ResolutionStrategy.VROOM)
    print(
        f"accuracy: FN {result.fn_rate:.1%}  FP {result.fp_rate:.1%} "
        "(fractions of the predictable subset)"
    )
    return 0


def cmd_figure(args) -> int:
    from repro.experiments import extensions, figures
    from repro.experiments.parallel import set_default_workers

    if args.workers is not None:
        # Figures call sweep_configs internally; raising the session
        # default parallelises those sweeps without touching each figure.
        set_default_workers(args.workers)
    name = args.name.replace("-", "_")
    func = getattr(figures, name, None) or getattr(extensions, name, None)
    if func is None:
        available = sorted(
            attr
            for module in (figures, extensions)
            for attr in vars(module)
            if not attr.startswith("_")
            and callable(getattr(module, attr))
            and attr not in ("LoadStamp",)
        )
        print(f"unknown figure {args.name!r}; available: {available}")
        return 2
    kwargs = {}
    if args.count is not None:
        kwargs["count"] = args.count
    result = func(**kwargs)
    _print_result(args.name, result)
    return 0


def _print_result(title: str, result) -> None:
    print(f"== {title} ==")
    if not isinstance(result, dict):
        print(result)
        return
    for key, value in result.items():
        if isinstance(value, list) and value and isinstance(value[0], float):
            print(Cdf(value).render(key))
        elif isinstance(value, dict):
            print(f"{key}:")
            for inner_key, inner_value in value.items():
                print(f"  {inner_key}: {inner_value}")
        else:
            print(f"{key}: {value}")


def cmd_report(args) -> int:
    """A full comparison report for one page across configurations."""
    from repro.analysis.critical_path import critical_path_composition
    from repro.analysis.waterfall import summarize_phases

    _maybe_enable_audit(args)
    page = _page(args)
    snapshot = page.materialize(_stamp(args))
    store = record_snapshot(snapshot)
    print(
        f"# Report: {page.name!r} — {len(snapshot.all_resources())} "
        f"resources, {snapshot.total_bytes() / 1e6:.2f} MB, "
        f"{len(snapshot.domains())} domains\n"
    )
    header = (
        f"{'config':<18} {'PLT':>7} {'AFT':>7} {'SI':>7} "
        f"{'cpu%':>5} {'net-frac':>9} {'waste':>8}"
    )
    print(header)
    results = {}
    for config in args.configs:
        metrics = run_config(config, page, snapshot, store)
        results[config] = metrics
        print(
            f"{config:<18} {metrics.plt:6.2f}s {metrics.aft:6.2f}s "
            f"{metrics.speed_index:6.0f} "
            f"{metrics.cpu_utilization:4.0%} "
            f"{metrics.network_wait_fraction:8.2f} "
            f"{metrics.wasted_bytes / 1e3:6.0f}KB"
        )
    print()
    for config, metrics in results.items():
        print(f"## {config}")
        composition = critical_path_composition(
            metrics, first_party_domain=f"{page.name}.com"
        )
        print(composition.describe())
        phases = summarize_phases(metrics)
        print(
            f"discovery done {phases['discovery_complete']:.2f}s, "
            f"fetches done {phases['fetch_complete']:.2f}s, "
            f"{phases['pushed']} pushed, {phases['cached']} cached\n"
        )
    return 0


def cmd_sweep(args) -> int:
    """Corpus × configs sweep on the parallel engine, with a perf line."""
    import json

    from repro.analysis.stats import median
    from repro.experiments.parallel import run_sweep

    pages = _corpus_or_exit(args.corpus, args.count)
    if pages is None:
        return 2
    stamp = LoadStamp(
        when_hours=DEFAULT_EVAL_HOUR, device=args.device, user=args.user
    )
    run, perf = run_sweep(
        pages, args.configs, stamp=stamp, workers=args.workers
    )
    print(
        f"swept {args.count} pages x {len(args.configs)} configs "
        f"({perf.jobs} jobs) with {perf.workers} workers "
        f"in {perf.elapsed:.2f}s ({perf.jobs_per_sec:.1f} jobs/s, "
        f"snapshot cache hit rate {perf.cache_hit_rate:.0%})"
    )
    print(f"{'config':<24} {'median PLT':>11}")
    for config in args.configs:
        print(f"{config:<24} {median(run.series(config)):10.2f}s")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(perf.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"perf report written to {args.report}")
    return 0


def cmd_resilience(args) -> int:
    """Fault-injection sweep: intensity × configs, PLT plus counters."""
    import json

    from repro.analysis.stats import median
    from repro.experiments.resilience import resilience_sweep
    from repro.net.faults import ResiliencePolicy

    if _corpus_or_exit("news", args.count) is None:
        return 2
    result = resilience_sweep(
        count=args.count,
        rates=tuple(args.rates),
        configs=tuple(args.configs),
        resilience=ResiliencePolicy(
            request_timeout=args.timeout,
            max_retries=args.retries,
            retry_backoff=args.backoff,
        ),
        seed=args.seed,
        workers=args.workers,
    )
    print(
        f"{'rate':>5} {'config':<18} {'median PLT':>11} {'retries':>8} "
        f"{'timeouts':>9} {'drops':>6} {'5xx':>5} {'failed':>7} "
        f"{'waste':>8}"
    )
    for rate, rows in result.items():
        for config, row in rows.items():
            print(
                f"{rate:4.0%} {config:<18} "
                f"{median(row['plt']):10.2f}s "
                f"{row['retries']:8d} {row['timeouts']:9d} "
                f"{row['connection_drops']:6d} {row['error_responses']:5d} "
                f"{row['failed_fetches']:7d} "
                f"{row['fault_wasted_bytes'] / 1e3:6.0f}KB"
            )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"resilience report written to {args.report}")
    return 0


def _print_service_scenarios(scenarios: dict) -> None:
    """Human summary of the fleet scenarios (kill/flash/reshard)."""
    kill = scenarios["kill_shard"]
    print(
        f"kill shard {kill['victim_shard']} "
        f"[{kill['down_at_hours']:.2f}h, {kill['up_at_hours']:.2f}h):"
    )
    for row in kill["rows"]:
        line = (
            f"  replication={row['replication']}: in-outage served "
            f"{row['window']['served_rate']:.2%}, "
            f"{row['totals']['failovers']} failover(s), "
            f"p999 {row['latency']['p999_ms']:.2f} ms"
        )
        bridge = row.get("bridge_window")
        if bridge:
            line += (
                f"; degraded precision {bridge['precision_mean']:.3f} / "
                f"recall {bridge['recall_mean']:.3f}"
            )
        print(line)
    flash = scenarios["flash_crowd"]
    print(
        f"flash crowd ×{flash['flash_multiplier']:.0f} at "
        f"{flash['flash_at_hours']:.2f}h:"
    )
    for row in flash["rows"]:
        print(
            f"  frontend cache {row['frontend_cache_entries']:2d}: "
            f"in-flash served {row['window']['served_rate']:.2%}, "
            f"{row['totals']['frontend_hits']} frontend hit(s), "
            f"p999 {row['latency']['p999_ms']:.2f} ms"
        )
    reshard = scenarios["reshard"]
    print(
        f"live reshard {reshard['shards_before']}→"
        f"{reshard['shards_after']} shards: payloads match "
        f"{reshard['payloads_match']} "
        f"(audited {reshard['audited']}), "
        f"{reshard['migration']['keys_moved']} key(s) moved over "
        f"{reshard['migration']['steps']} step(s)"
    )


def cmd_service(args) -> int:
    """Simulated hint-serving backend: workload, staleness sweep, bench."""
    import json

    from repro.experiments.service import (
        service_benchmark,
        smoke_check,
        smoke_run,
        smoke_scenarios,
    )

    _maybe_enable_audit(args)

    def write_report(payload) -> None:
        if not args.report:
            return
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"service report written to {args.report}")

    if args.smoke:
        report = smoke_run()
        totals = report["totals"]
        print(
            f"smoke: {totals['lookups']} lookups, "
            f"hit rate {totals['hit_rate']:.2%} "
            f"(stale {totals['stale_hit_rate']:.2%}), "
            f"{totals['evictions']} eviction(s)"
        )
        scenarios = smoke_scenarios()
        _print_service_scenarios(scenarios)
        write_report(
            {
                "benchmark": "service-smoke",
                "report": report,
                "scenarios": scenarios,
            }
        )
        problems = smoke_check(report, scenarios)
        for problem in problems:
            print(f"smoke mismatch — {problem}", file=sys.stderr)
        return 1 if problems else 0

    if args.hours <= 0:
        print(
            f"error: --hours must be > 0 (got {args.hours})",
            file=sys.stderr,
        )
        return 2
    pages = _corpus_or_exit(args.corpus, args.pages)
    if pages is None:
        return 2
    payload = service_benchmark(
        pages,
        horizon_hours=args.hours,
        rate_per_hour=args.rate,
        shards=args.shards,
        shard_memory_bytes=args.shard_memory_kb * 1024,
        ttl_hours=args.ttl,
        freshness_hours=args.fresh,
        batch_period_hours=args.batch_period,
        crawl_budget_per_hour=args.budget,
        zipf_exponent=args.zipf,
        seed=args.seed,
        bridge_sample_every=args.bridge_every,
        budgets=tuple(args.budgets),
    )
    report = payload["report"]
    totals = report["totals"]
    latency = report["latency"]
    scheduler = report["scheduler"]
    print(
        f"served {totals['lookups']} lookups over "
        f"{report['config']['pages']} pages in "
        f"{report['duration_hours']:.2f} simulated hours"
    )
    print(
        f"hit rate {totals['hit_rate']:.2%} "
        f"(fresh {totals['fresh_hit_rate']:.2%}, "
        f"stale {totals['stale_hit_rate']:.2%}); "
        f"miss {totals['miss_rate']:.2%}"
    )
    print(
        f"lookup latency p50 {latency['p50_ms']:.2f} ms / "
        f"p99 {latency['p99_ms']:.2f} ms; "
        f"{totals['evictions']} eviction(s); "
        f"crawl budget {scheduler['budget_utilization']:.0%} used"
    )
    if "bridge" in payload:
        aggregate = payload["bridge"]["aggregate"]
        print(
            f"bridge ({aggregate['samples']} samples): served hints "
            f"precision {aggregate['precision_mean']:.3f} / "
            f"recall {aggregate['recall_mean']:.3f} "
            f"(oracle {aggregate['oracle_precision_mean']:.3f} / "
            f"{aggregate['oracle_recall_mean']:.3f}); "
            f"PLT {aggregate['plt_served_mean']:.2f}s served vs "
            f"{aggregate['plt_oracle_mean']:.2f}s oracle vs "
            f"{aggregate['plt_no_hints_mean']:.2f}s no hints"
        )
    staleness = payload["staleness"]
    print(f"{'budget/h':>9} {'stale-hit':>10} {'hit':>8}")
    for row in staleness["budgets"]:
        print(
            f"{row['crawl_budget_per_hour']:9.0f} "
            f"{row['stale_hit_rate']:9.2%} {row['hit_rate']:7.2%}"
        )
    print(
        "stale-hit rate monotone in budget: "
        f"{staleness['monotone_stale_hit_rate']}"
    )
    if "scenarios" in payload:
        _print_service_scenarios(payload["scenarios"])
    write_report(payload)
    return 0


def _print_longrun(payload) -> None:
    """Human summary of a longrun benchmark payload."""
    report = payload["report"]
    totals = report["totals"]
    resume = payload["resume"]
    ab = payload["ab"]
    perf = payload["perf"]
    print(
        f"longrun: {totals['lookups']} lookups over "
        f"{report['horizon_hours']:.1f} simulated hours "
        f"({len(report['rollups'])} rollup windows)"
    )
    print(
        f"hit rate {totals['hit_rate']:.2%} "
        f"(stale {totals['stale_hit_rate']:.2%}); "
        f"{totals['unavailable']} unavailable; "
        f"{totals['shard_wipes']} shard wipe(s), "
        f"{totals['failovers']} failover(s)"
    )
    digest = report["digest"]
    if digest["bits_per_entry"]:
        print(
            f"digest filter ({digest['bits_per_entry']} bits/entry): "
            f"{digest['filtered_lookups']} repeat visits, "
            f"{digest['filtered_urls']} hint URL(s) suppressed"
        )
    print(
        f"checkpoint/resume at {resume['checkpoint_at_hours']:.2f} h: "
        f"fingerprints match {resume['match']} "
        f"({resume['checkpoint_bytes']} bytes)"
    )
    served_delta = ab["summary"]["served_rate_delta"]
    print(
        f"A/B {ab['lane_a']['label']} vs {ab['lane_b']['label']} "
        f"{ab['lane_b']['overrides']}: served-rate delta "
        f"mean {served_delta['mean']:+.4f} "
        f"(min {served_delta['min']:+.4f}) over "
        f"{len(ab['windows'])} paired windows"
    )
    print(
        f"peak RSS {perf['peak_rss_kb'] / 1024:.0f} MB, "
        f"{perf['lookups_per_s']:.0f} lookups/s"
    )


def cmd_longrun(args) -> int:
    """Continuous operation: ScenarioSpec through the streaming runner."""
    import json
    from dataclasses import replace

    from repro.experiments.longrun_bench import (
        DEFAULT_SPEC,
        longrun_benchmark,
        smoke_check,
        smoke_run,
    )

    _maybe_enable_audit(args)

    def write_report(payload) -> None:
        if not args.report:
            return
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"longrun report written to {args.report}")

    if args.smoke:
        payload = smoke_run()
        _print_longrun(payload)
        write_report(payload)
        problems = smoke_check(payload)
        for problem in problems:
            print(f"smoke mismatch — {problem}", file=sys.stderr)
        return 1 if problems else 0

    if args.hours <= 0:
        print(
            f"error: --hours must be > 0 (got {args.hours})",
            file=sys.stderr,
        )
        return 2
    overrides = {"horizon_hours": args.hours, "corpus": args.corpus}
    for dest, field in (
        ("pages", "pages"),
        ("rate", "rate_per_hour"),
        ("shards", "shards"),
        ("replication", "replication"),
        ("digest_bits", "digest_filter_bits"),
        ("cycle_every", "shard_cycle_every_hours"),
        ("cycle_down", "shard_cycle_down_hours"),
        ("rollup", "rollup_hours"),
    ):
        value = getattr(args, dest)
        if value is not None:
            overrides[field] = value
    try:
        spec = replace(DEFAULT_SPEC, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint_at is not None and not (
        0 < args.checkpoint_at < spec.horizon_hours
    ):
        print(
            f"error: --checkpoint-at must fall inside the horizon "
            f"(0, {spec.horizon_hours}) (got {args.checkpoint_at})",
            file=sys.stderr,
        )
        return 2
    payload = longrun_benchmark(
        spec, checkpoint_at_hours=args.checkpoint_at
    )
    _print_longrun(payload)
    write_report(payload)
    if not payload["resume"]["match"]:
        print(
            "error: resumed run diverged from the straight run "
            f"({payload['resume']['resumed_fingerprint']} != "
            f"{payload['resume']['straight_fingerprint']})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench(args) -> int:
    """Engine micro-benchmark: the reference and fast engines, head to head."""
    import json

    from repro.experiments.engine_bench import (
        engine_benchmark,
        profile_scenario,
        smoke_check,
        smoke_run,
    )

    _maybe_enable_audit(args)

    def write_report(payload) -> None:
        if not args.report:
            return
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"engine report written to {args.report}")

    def print_rows(report) -> None:
        print(
            f"{'scenario':<22} {'events ref':>10} {'events fast':>11} "
            f"{'reduction':>9} {'speedup':>8}"
        )
        for row in report["scenarios"]:
            print(
                f"{row['scenario']:<22} "
                f"{row['counters_reference']['events_scheduled']:>10} "
                f"{row['counters_fast']['events_scheduled']:>11} "
                f"{row['event_reduction']:>8.2f}x "
                f"{row['wall_speedup']:>7.2f}x"
            )

    if getattr(args, "profile", None):
        table = profile_scenario(args.profile, mode=args.profile_mode)
        print(table)
        print(f"profile written to {args.profile}")
        return 0

    if args.smoke:
        report = smoke_run()
        print_rows(report)
        write_report(report)
        problems = smoke_check(report)
        for problem in problems:
            print(f"smoke mismatch — {problem}", file=sys.stderr)
        return 1 if problems else 0

    report = engine_benchmark(repeats=args.repeats)
    print_rows(report)
    write_report(report)
    return 0


def cmd_lint(args) -> int:
    """Static analyzer (determinism, layering, hot-path, config drift)."""
    from pathlib import Path

    from repro.devtools import Baseline, lint_package
    from repro.devtools.baseline import BaselineEntry
    from repro.devtools.findings import RULES, family_of

    if args.rules:
        for code in sorted(RULES):
            print(f"{code}  [{family_of(code)}]  {RULES[code]}")
        return 0
    baseline_path = Path(args.baseline)
    baseline = Baseline.load(baseline_path)
    if args.check_baseline:
        # CI guard: every baseline entry must carry a real reason.
        bad = [
            entry
            for entry in baseline.entries
            if not entry.reason.strip()
            or entry.reason.strip().upper().startswith("TODO")
        ]
        for entry in bad:
            print(
                f"{baseline_path}: entry {entry.code} {entry.path} "
                f"(occurrence {entry.occurrence}) has no usable reason: "
                f"{entry.reason!r}",
                file=sys.stderr,
            )
        print(
            f"baseline check: {len(baseline.entries)} entr(ies), "
            f"{len(bad)} without a reason"
        )
        return 1 if bad else 0
    root = (
        Path(args.root)
        if args.root
        else Path(__file__).resolve().parent
    )
    try:
        report = lint_package(
            root,
            baseline=baseline,
            select=args.select or None,
            families=args.only_family or None,
        )
    except ValueError as error:  # unknown --select / --only-family
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.update_baseline:
        # Every new baseline entry must carry a real explanation: an
        # unexplained suppression is just a hidden finding.
        reason = (args.reason or "").strip()
        if not reason or reason.upper().startswith("TODO"):
            print(
                "error: --update-baseline requires --reason with a real "
                "explanation for the newly baselined findings "
                "(not a TODO placeholder)",
                file=sys.stderr,
            )
            return 2
        # Keep the reasons of entries that still match; new findings get
        # the reason given on the command line.
        keep = {entry.key: entry for entry in baseline.entries}
        entries = []
        for finding in report.suppressed + report.findings:
            entry = keep.get(finding.key)
            if entry is None:
                entry = BaselineEntry(
                    path=finding.path,
                    code=finding.code,
                    message=finding.message,
                    occurrence=finding.occurrence,
                    reason=reason,
                )
            entries.append(entry)
        entries.sort(key=lambda entry: entry.key)
        Baseline(entries=entries).save(baseline_path)
        print(
            f"baseline updated: {len(entries)} entr(ies) written to "
            f"{baseline_path}"
        )
        return 0
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_human(stats=args.stats))
    return report.exit_code


def cmd_configs(_args) -> int:
    for name in CONFIG_NAMES:
        print(name)
    return 0


def cmd_profiles(_args) -> int:
    from repro.net.profiles import PROFILES

    for name, net_profile in PROFILES.items():
        print(
            f"{name:<12} {net_profile.downlink_bps / 1e6:6.2f} Mbps down, "
            f"{net_profile.rtt * 1000:5.0f} ms RTT"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vroom (SIGCOMM 2017) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    load = commands.add_parser("load", help="simulate page loads")
    _add_page_args(load)
    load.add_argument(
        "--configs",
        nargs="+",
        default=["http1", "http2", "vroom"],
        choices=CONFIG_NAMES,
    )
    _add_audit_arg(load)
    load.set_defaults(func=cmd_load)

    waterfall = commands.add_parser("waterfall", help="render a waterfall")
    _add_page_args(waterfall)
    waterfall.add_argument("--config", default="vroom", choices=CONFIG_NAMES)
    waterfall.add_argument("--rows", type=int, default=30)
    _add_audit_arg(waterfall)
    waterfall.set_defaults(func=cmd_waterfall)

    audit = commands.add_parser("audit", help="inspect server-side hints")
    _add_page_args(audit)
    audit.add_argument("--rows", type=int, default=5)
    audit.set_defaults(func=cmd_audit)

    report = commands.add_parser(
        "report", help="full comparison report for one page"
    )
    _add_page_args(report)
    report.add_argument(
        "--configs",
        nargs="+",
        default=["http2", "vroom"],
        choices=CONFIG_NAMES,
    )
    _add_audit_arg(report)
    report.set_defaults(func=cmd_report)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="e.g. fig13_headline, adoption_sweep")
    figure.add_argument("--count", type=int, default=None)
    figure.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel sweep workers (0 = one per CPU; default serial)",
    )
    figure.set_defaults(func=cmd_figure)

    sweep = commands.add_parser(
        "sweep", help="corpus-scale sweep on the parallel engine"
    )
    sweep.add_argument(
        "--corpus", choices=sorted(CORPORA), default="news"
    )
    sweep.add_argument("--count", type=int, default=10)
    sweep.add_argument("--device", default="nexus6")
    sweep.add_argument("--user", default="user0")
    sweep.add_argument(
        "--configs",
        nargs="+",
        default=["http2", "vroom"],
        choices=CONFIG_NAMES,
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (0 or omitted = one per CPU)",
    )
    sweep.add_argument(
        "--report",
        default=None,
        help="write the machine-readable perf report (JSON) here",
    )
    sweep.set_defaults(func=cmd_sweep)

    resilience = commands.add_parser(
        "resilience", help="fault-injection resilience sweep"
    )
    resilience.add_argument("--count", type=int, default=6)
    resilience.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.0, 0.05, 0.10, 0.20],
        help="hint-fetch failure probabilities to sweep",
    )
    resilience.add_argument(
        "--configs",
        nargs="+",
        default=["http2", "vroom"],
        choices=CONFIG_NAMES,
    )
    resilience.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-attempt request timeout in seconds (0 disables)",
    )
    resilience.add_argument(
        "--retries", type=int, default=2, help="retries per failed fetch"
    )
    resilience.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        help="first retry delay in seconds (doubles per retry)",
    )
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (0 or omitted = one per CPU)",
    )
    resilience.add_argument(
        "--report",
        default=None,
        help="write the full sweep result (JSON) here",
    )
    resilience.set_defaults(func=cmd_resilience)

    service = commands.add_parser(
        "service",
        help="simulated hint-serving backend (sharded store + scheduler)",
    )
    service.add_argument(
        "--corpus", choices=sorted(CORPORA), default="news"
    )
    service.add_argument(
        "--pages", type=int, default=50, help="page fleet size"
    )
    service.add_argument(
        "--hours",
        type=float,
        default=5.0,
        help="simulated horizon (hours); traffic stops there",
    )
    service.add_argument(
        "--rate",
        type=float,
        default=20_000.0,
        help="mean arrival rate (lookups per simulated hour)",
    )
    service.add_argument(
        "--zipf", type=float, default=1.1, help="page-popularity exponent"
    )
    service.add_argument("--shards", type=int, default=8)
    service.add_argument(
        "--shard-memory-kb",
        type=int,
        default=256,
        help="per-shard memory budget (KB); LRU eviction enforces it",
    )
    service.add_argument(
        "--ttl", type=float, default=12.0, help="entry TTL (hours)"
    )
    service.add_argument(
        "--fresh",
        type=float,
        default=2.0,
        help="freshness horizon (hours); older entries count as stale hits",
    )
    service.add_argument(
        "--budget",
        type=float,
        default=60.0,
        help="crawl budget (server page loads/hour) for the main run",
    )
    service.add_argument(
        "--budgets",
        type=float,
        nargs="+",
        default=[6.0, 15.0, 60.0],
        help="crawl budgets swept by the staleness experiment",
    )
    service.add_argument(
        "--batch-period",
        type=float,
        default=0.25,
        help="offline-resolution batch period (hours)",
    )
    service.add_argument("--seed", type=int, default=0)
    service.add_argument(
        "--bridge-every",
        type=int,
        default=10_000,
        help="sample every Nth lookup for the accuracy bridge (0 = off)",
    )
    service.add_argument(
        "--report",
        default="BENCH_service.json",
        help="write the machine-readable benchmark (JSON) here",
    )
    service.add_argument(
        "--smoke",
        action="store_true",
        help="run the pinned smoke configuration and assert its counters",
    )
    _add_audit_arg(service)
    service.set_defaults(func=cmd_service)

    longrun = commands.add_parser(
        "longrun",
        help="continuous-operation harness: days-long streaming run "
        "with checkpoint/resume and paired A/B lanes",
    )
    longrun.add_argument(
        "--hours",
        type=float,
        default=48.0,
        help="simulated horizon (hours)",
    )
    longrun.add_argument(
        "--corpus",
        default="news",
        help="scenario corpus (news, alexa100, alexa400, accuracy, "
        "shopping)",
    )
    longrun.add_argument(
        "--pages", type=int, default=None, help="page fleet size"
    )
    longrun.add_argument(
        "--rate",
        type=float,
        default=None,
        help="mean arrival rate (lookups per simulated hour)",
    )
    longrun.add_argument("--shards", type=int, default=None)
    longrun.add_argument(
        "--replication",
        type=int,
        default=None,
        help="replicas per entry in the base lane",
    )
    longrun.add_argument(
        "--digest-bits",
        type=int,
        default=None,
        help="cache-digest bits per entry for repeat-visit hint "
        "filtering (0 = off)",
    )
    longrun.add_argument(
        "--cycle-every",
        type=float,
        default=None,
        help="shard fail/heal cycle period (hours, 0 = no faults)",
    )
    longrun.add_argument(
        "--cycle-down",
        type=float,
        default=None,
        help="outage length per cycle (hours)",
    )
    longrun.add_argument(
        "--rollup",
        type=float,
        default=None,
        help="rollup window length (simulated hours)",
    )
    longrun.add_argument(
        "--checkpoint-at",
        type=float,
        default=None,
        help="checkpoint/resume split point (hours; default mid-run)",
    )
    longrun.add_argument(
        "--report",
        default="BENCH_longrun.json",
        help="write the machine-readable benchmark (JSON) here",
    )
    longrun.add_argument(
        "--smoke",
        action="store_true",
        help="run the pinned smoke scenario and assert its counters",
    )
    _add_audit_arg(longrun)
    longrun.set_defaults(func=cmd_longrun)

    bench = commands.add_parser(
        "bench",
        help="engine micro-benchmarks (the reference and fast engines)",
    )
    bench.add_argument(
        "target",
        choices=["engine"],
        help="benchmark suite to run",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="wall-clock repeats per engine (best-of; counters are exact)",
    )
    bench.add_argument(
        "--report",
        default="BENCH_engine.json",
        help="write the machine-readable benchmark (JSON) here",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "assert the pinned deterministic counters and the fast-engine "
            "speedup floors"
        ),
    )
    bench.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "cProfile the corpus-news load under --profile-mode: dump "
            "raw stats to PATH and print the top-25 cumulative table"
        ),
    )
    bench.add_argument(
        "--profile-mode",
        choices=ENGINES,
        default="fast",
        help="engine to profile with --profile (default: fast)",
    )
    _add_audit_arg(bench)
    bench.set_defaults(func=cmd_bench)

    lint = commands.add_parser(
        "lint",
        help="static analyzer: determinism, layering, hot-path perf, "
        "config drift",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="package directory to lint (default: the repro package)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="baseline file of explained findings",
    )
    lint.add_argument(
        "--format", choices=["human", "json"], default="human"
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODE",
        help="only run rules matching this code or prefix (repeatable, "
        "e.g. --select PERF401 --select CFG)",
    )
    lint.add_argument(
        "--only-family",
        action="append",
        default=None,
        metavar="FAMILY",
        help="only run one rule family: det, layering, perf, config "
        "(repeatable)",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="append a stats line (files / rules / hot functions / "
        "duration) to human output",
    )
    lint.add_argument(
        "--check-baseline",
        action="store_true",
        help="only validate the baseline file: fail if any entry lacks "
        "a usable reason",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to match the current findings "
        "(requires --reason)",
    )
    lint.add_argument(
        "--reason",
        default=None,
        help="explanation stamped onto newly baselined findings; "
        "required by --update-baseline",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the rule codes and exit",
    )
    lint.set_defaults(func=cmd_lint)

    commands.add_parser(
        "configs", help="list named configurations"
    ).set_defaults(func=cmd_configs)
    commands.add_parser(
        "profiles", help="list network profiles"
    ).set_defaults(func=cmd_profiles)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
