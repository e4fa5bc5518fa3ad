#!/usr/bin/env python3
"""Scenario: a news provider deciding whether to deploy Vroom.

The provider controls only its first-party domain; ad networks and CDNs
may or may not follow.  This script answers the questions the paper's
Sec 6.1 partial-adoption experiment answers:

1. How much does the provider gain if *only it* adopts Vroom?
2. How much more arrives once every domain adopts?
3. What does the server pay? (online HTML parse latency, hint bytes,
   extra offline loads)

Run:  python examples/provider_adoption_study.py [--workers N]
"""

import argparse
import statistics

from repro import LoadStamp, load_matrix, news_sports_corpus
from repro.core.offline import OfflineResolver
from repro.core.resolver import VroomResolver


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workers", type=int, default=1,
        help="sweep worker processes (0 = one per CPU)",
    )
    args = parser.parse_args()

    pages = news_sports_corpus(count=8)
    stamp = LoadStamp(when_hours=1000.0)

    configs = ["http2", "vroom-first-party", "vroom"]
    run = load_matrix(pages, configs, stamp=stamp, workers=args.workers)
    perf = run.perf
    plts = {config: run.series(config) for config in configs}
    print(
        f"({perf.jobs} loads, {perf.workers} workers, "
        f"{perf.jobs_per_sec:.1f} loads/s)"
    )

    base = statistics.median(plts["http2"])
    partial = statistics.median(plts["vroom-first-party"])
    full = statistics.median(plts["vroom"])
    print("== Median PLT across 8 landing pages ==")
    print(f"plain HTTP/2 everywhere        : {base:5.2f} s")
    print(
        f"Vroom on first party only      : {partial:5.2f} s "
        f"({base - partial:+.2f} s)"
    )
    print(
        f"Vroom adopted by every domain  : {full:5.2f} s "
        f"({base - full:+.2f} s)"
    )

    # Server-side costs for one page.  The matrix above already
    # materialised this snapshot; the session cache hands it back.
    from repro.replay.cache import materialize_cached

    page = pages[0]
    snapshot, _ = materialize_cached(page, stamp)
    resolver = VroomResolver(page)
    bundle = resolver.hints_for(
        snapshot.root, as_of_hours=stamp.when_hours
    )
    offline = OfflineResolver(page)
    loads = offline.offline_loads(stamp.when_hours, "phone")
    print(f"\n== Server-side costs for {page.name!r} ==")
    print(f"hints attached to the root HTML : {len(bundle)} URLs")
    print(f"hint header overhead            : ~{len(bundle) * 80} bytes")
    print(
        f"offline loads per hour          : {len(loads)}-load window, "
        "one emulated load per device class per period"
    )
    print("online HTML parse overhead      : ~100 ms per HTML response")


if __name__ == "__main__":
    main()
