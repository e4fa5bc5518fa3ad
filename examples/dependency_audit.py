#!/usr/bin/env python3
"""Scenario: auditing what a Vroom server would tell clients about a page.

Walks one page's dependency structure the way a Vroom-compliant server
sees it: the stable set from offline loads, what online HTML analysis
adds, which resources are deliberately left to the client (nonce ads,
user-state script children, iframe content), and how accurate the result
is against a real client load.

Run:  python examples/dependency_audit.py
"""

from collections import Counter

from repro import LoadStamp, news_sports_corpus
from repro.analysis.accuracy import predictable_partition, score_strategy
from repro.core.offline import OfflineResolver
from repro.core.online import analyze_html
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.pages.resources import Priority


def main() -> None:
    page = news_sports_corpus(count=2)[0]
    stamp = LoadStamp(when_hours=1000.0, user="alice")
    snapshot = page.materialize(stamp)

    # -- what the offline database holds -------------------------------
    offline = OfflineResolver(page)
    stable = set(offline.stable_set(stamp.when_hours, "phone")["urls"])
    print(f"page {page.name!r}")
    print(
        f"offline stable set: {len(stable)} URLs "
        f"(from {offline.window_loads} hourly loads)"
    )

    # -- what online analysis adds for THIS response -------------------
    analysis = analyze_html(snapshot.root)
    fresh = [url for url in analysis.urls if url not in stable]
    print(
        f"online HTML analysis: {len(analysis.urls)} URLs in the served "
        f"body, {len(fresh)} of them missing from the stable set "
        "(fresh stories, rotated creatives)"
    )

    # -- the hint bundle actually attached to the response -------------
    resolver = VroomResolver(page)
    bundle = resolver.hints_for(snapshot.root, as_of_hours=stamp.when_hours)
    by_class = Counter(hint.priority for hint in bundle)
    print("hint bundle on the root HTML response:")
    for priority in Priority:
        print(f"  {priority.name:<16} {by_class.get(priority, 0):>4} URLs")

    # -- what is deliberately left to the client -----------------------
    predictable, unpredictable, _ = predictable_partition(page, stamp)
    print(
        f"left to the client: {len(unpredictable)} intrinsically "
        "unpredictable URLs (nonce ads, user-state-derived fetches)"
    )

    # -- accuracy scorecard ---------------------------------------------
    print("\naccuracy against a real client load "
          "(rates relative to the predictable subset):")
    for strategy in (
        ResolutionStrategy.VROOM,
        ResolutionStrategy.OFFLINE_ONLY,
        ResolutionStrategy.ONLINE_ONLY,
    ):
        result = score_strategy(page, stamp, strategy)
        print(
            f"  {strategy.value:<13} "
            f"false negatives {result.fn_rate:5.1%}   "
            f"false positives {result.fp_rate:5.1%}"
        )


if __name__ == "__main__":
    main()
