"""Calibration regression guard.

The reproduction's value lives in its calibration: the orderings and
ratios documented in EXPERIMENTS.md. This module pins the expected
medians (with tolerance bands wide enough for corpus-size noise but
tight enough to catch accidental model drift) and checks a fresh run
against them. `tests/integration/test_regression_guard.py` runs it on
every test session.

When a deliberate recalibration moves the numbers, update EXPECTATIONS
alongside EXPERIMENTS.md — the guard exists to make that step conscious.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.parallel import load_matrix
from repro.pages.corpus import news_sports_corpus


@dataclass(frozen=True)
class Expectation:
    """A pinned median with a relative tolerance band."""

    metric: str
    expected: float
    rel_tolerance: float = 0.25

    def check(self, measured: float) -> str:
        """Empty string if within band; otherwise a failure description."""
        low = self.expected * (1.0 - self.rel_tolerance)
        high = self.expected * (1.0 + self.rel_tolerance)
        if low <= measured <= high:
            return ""
        return (
            f"{self.metric}: measured {measured:.3f} outside "
            f"[{low:.3f}, {high:.3f}] (pinned {self.expected:.3f})"
        )


#: Pinned medians from the calibrated build (12 News/Sports pages,
#: seed-stable corpus).  See docs/CALIBRATION.md for provenance.
EXPECTATIONS = (
    Expectation("http1_plt", 7.55, 0.20),
    Expectation("http2_plt", 7.24, 0.20),
    Expectation("vroom_plt", 6.01, 0.20),
    Expectation("polaris_plt", 6.65, 0.20),
    Expectation("cpu_bound_plt", 4.40, 0.25),
    Expectation("network_bound_plt", 2.48, 0.25),
)

_CONFIG_BY_METRIC = {
    "http1_plt": "http1",
    "http2_plt": "http2",
    "vroom_plt": "vroom",
    "polaris_plt": "polaris",
    "cpu_bound_plt": "cpu-bound",
    "network_bound_plt": "network-bound",
}


def measure_medians(count: int = 12) -> Dict[str, float]:
    """Fresh medians for every pinned metric."""
    run = load_matrix(news_sports_corpus(count), _CONFIG_BY_METRIC.values())
    return {
        metric: statistics.median(run.series(config))
        for metric, config in _CONFIG_BY_METRIC.items()
    }


def check_calibration(count: int = 12) -> List[str]:
    """Run the guard; returns a list of violations (empty = healthy)."""
    measured = measure_medians(count)
    failures = []
    for expectation in EXPECTATIONS:
        message = expectation.check(measured[expectation.metric])
        if message:
            failures.append(message)
    # Ordering invariants are checked unconditionally — they are the
    # reproduction's core claim and hold at any calibration.
    if not (
        measured["vroom_plt"]
        < measured["http2_plt"]
        <= measured["http1_plt"] * 1.02
    ):
        failures.append(
            "ordering violated: expected vroom < http2 <= http1, got "
            f"{measured['vroom_plt']:.2f} / {measured['http2_plt']:.2f} / "
            f"{measured['http1_plt']:.2f}"
        )
    if not (
        measured["vroom_plt"] < measured["polaris_plt"] * 1.02
    ):
        failures.append(
            "ordering violated: expected vroom <= polaris, got "
            f"{measured['vroom_plt']:.2f} / {measured['polaris_plt']:.2f}"
        )
    bound = max(
        measured["cpu_bound_plt"], measured["network_bound_plt"]
    )
    if bound > measured["vroom_plt"] * 1.02:
        failures.append(
            f"lower bound {bound:.2f} exceeds vroom "
            f"{measured['vroom_plt']:.2f}"
        )
    return failures
