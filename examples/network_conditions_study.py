#!/usr/bin/env python3
"""Scenario: does Vroom still help off its LTE design point?

Sec 4.3 of the paper notes the scheduler targets a modern phone on LTE,
where the CPU is the bottleneck, and predicts that different strategies
would be needed when bandwidth or latency dominates.  This script sweeps
Vroom and HTTP/2 across five network profiles and also tries the
Vroom+Polaris hybrid the paper suggests as future work.

Run:  python examples/network_conditions_study.py
"""

import statistics

from repro import LoadStamp, load_matrix, news_sports_corpus
from repro.net.profiles import PROFILES


def main() -> None:
    pages = news_sports_corpus(count=4)
    stamp = LoadStamp(when_hours=1000.0)

    print("== Vroom vs HTTP/2 by network profile (median of 4 pages) ==")
    print(f"{'profile':<12} {'http2':>8} {'vroom':>8} {'gain':>8}")
    for name, profile in PROFILES.items():
        # One snapshot per page, shared across all the profiles through
        # the session-wide snapshot cache.
        run = load_matrix(
            pages, ["http2", "vroom"], stamp=stamp, network=profile.config()
        )
        h2_median = statistics.median(run.series("http2"))
        vroom_median = statistics.median(run.series("vroom"))
        print(
            f"{name:<12} {h2_median:7.2f}s {vroom_median:7.2f}s "
            f"{h2_median - vroom_median:+7.2f}s"
        )

    print(
        "\nNote how the gain shrinks (or inverts) when bandwidth is the\n"
        "bottleneck (2g, loaded-lte): prefetched hints compete with the\n"
        "critical path for scarce bytes — exactly Sec 4.3's caveat."
    )

    print("\n== Vroom+Polaris hybrid (paper future work), LTE ==")
    configs = ["vroom", "polaris", "hybrid"]
    run = load_matrix(pages, configs, stamp=stamp)
    for config in configs:
        print(
            f"{config:<8} median {statistics.median(run.series(config)):5.2f}s"
        )


if __name__ == "__main__":
    main()
