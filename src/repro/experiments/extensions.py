"""Extension experiments beyond the paper's figures.

These probe the directions the paper explicitly flags but does not
evaluate: incremental adoption beyond first-party-only, the Vroom+Polaris
hybrid, alternate network regimes (Sec 4.3's caveat), cache-digest push
suppression, and page-type clustering economics (Sec 7).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.baselines.configs import run_config
from repro.browser.engine import BrowserConfig, load_page
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.clustering import evaluate_clustering
from repro.core.scheduler import VroomScheduler
from repro.core.server import vroom_servers
from repro.experiments.parallel import load_matrix
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.net.profiles import PROFILES
from repro.pages.corpus import accuracy_corpus, news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.replay.recorder import record_snapshot


def _stamp() -> LoadStamp:
    return LoadStamp(when_hours=DEFAULT_EVAL_HOUR)


def adoption_sweep(
    count: int = 12,
    fractions: tuple = (0.0, 0.25, 0.5, 0.75, 1.0),
    seed: int = 7,
) -> Dict[str, List[float]]:
    """Median PLT as a growing fraction of domains adopts Vroom.

    Fraction 0 is the HTTP/2 baseline; the first party always adopts
    first (it controls the root HTML, which carries most of the hint
    value); third parties join in seeded random order.
    """
    stamp = _stamp()
    rng = random.Random(seed)
    out: Dict[str, List[float]] = {
        f"adopt_{int(fraction * 100):03d}": [] for fraction in fractions
    }
    for page in news_sports_corpus(count):
        snapshot = page.materialize(stamp)
        store = record_snapshot(snapshot)
        domains = snapshot.domains()
        first_party = f"{page.name}.com"
        third_parties = [d for d in domains if d != first_party]
        rng.shuffle(third_parties)
        for fraction in fractions:
            label = f"adopt_{int(fraction * 100):03d}"
            if fraction == 0.0:
                metrics = run_config("http2", page, snapshot, store)
            else:
                extra = int(round((len(third_parties)) * (fraction)))
                adopting = {first_party} | set(third_parties[:extra])
                servers = vroom_servers(
                    page, snapshot, store, adopting_domains=adopting
                )
                metrics = load_page(
                    snapshot,
                    servers,
                    NetworkConfig(h2_scheduling=StreamScheduling.FIFO),
                    BrowserConfig(when_hours=stamp.when_hours),
                    policy=VroomScheduler(),
                )
            out[label].append(metrics.plt)
    return out


def hybrid_comparison(count: int = 16) -> Dict[str, List[float]]:
    """Vroom vs Polaris vs the hybrid, PLT per page."""
    configs = ["vroom", "polaris", "hybrid"]
    run = load_matrix(news_sports_corpus(count), configs)
    return {config: run.series(config) for config in configs}


def network_regimes(count: int = 10) -> Dict[str, Dict[str, List[float]]]:
    """Vroom vs HTTP/2 across network profiles (Sec 4.3's caveat).

    On the bandwidth-starved profiles Vroom's prefetching competes with
    the critical path for scarce bytes; on the latency-starved ones the
    hint round trips matter more.  The gain should shrink (possibly
    invert) away from the LTE design point.
    """
    pages = news_sports_corpus(count)
    out: Dict[str, Dict[str, List[float]]] = {}
    for name, net_profile in PROFILES.items():
        run = load_matrix(
            pages, ["http2", "vroom"], network=net_profile.config()
        )
        out[name] = {
            config: run.series(config) for config in ("http2", "vroom")
        }
    return out


def clustering_economics(
    count: int = 30, similarity_threshold: float = 0.5
) -> Dict[str, float]:
    """Sec 7: offline-load savings from page-type clustering."""
    pages = accuracy_corpus(count)
    economics = evaluate_clustering(
        pages, _stamp().when_hours, similarity_threshold
    )
    return {
        "pages": float(economics.pages),
        "clusters": float(economics.clusters),
        "hourly_load_reduction": economics.load_reduction,
        "median_stable_coverage": economics.median_coverage,
    }
