"""Resource-utilization experiments (the paper's Sec 3 thesis).

The paper's central argument: with today's page loads "neither the
client's CPU nor its access link is utilized to capacity", because each
blocks on the other; decoupling fetching from processing lets both run.
This experiment measures CPU and link utilization (busy fraction of the
load) per configuration — Vroom should raise CPU utilization relative to
the HTTP/2 baseline and pull the load's duration down toward the busy
time itself.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.parallel import load_matrix
from repro.pages.corpus import news_sports_corpus

DEFAULT_CONFIGS = ("http1", "http2", "vroom")


def utilization_comparison(
    count: int = 12,
    configs=DEFAULT_CONFIGS,
) -> Dict[str, Dict[str, List[float]]]:
    """Per-config CPU and link utilization distributions."""
    run = load_matrix(news_sports_corpus(count), configs)
    return {
        config: {
            "cpu": run.series(config, "cpu_utilization"),
            "link": run.series(config, "link_utilization"),
        }
        for config in configs
    }
