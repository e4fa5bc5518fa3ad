"""Per-figure regeneration functions (one per table/figure in the paper).

Each ``figN_*`` function runs the experiment behind that figure on a
(possibly downsized) corpus and returns a plain dict of series — the same
rows/curves the paper plots — which the benchmark harness prints next to
the paper's reported values.  Corpus sizes default small enough to run in
a benchmark session; pass larger counts for fuller CDFs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.accuracy import predictable_share, score_strategy
from repro.analysis.device_overlap import iou_distributions
from repro.analysis.persistence import persistence_distributions
from repro.analysis.stats import median, quartiles
from repro.baselines.configs import run_config
from repro.browser.cache import BrowserCache
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.resolver import ResolutionStrategy
from repro.experiments.parallel import load_matrix
from repro.pages.corpus import (
    accuracy_corpus,
    alexa_top100_corpus,
    alexa_top400_sample_corpus,
    news_sports_corpus,
)
from repro.pages.dynamics import LoadStamp
from repro.replay.recorder import record_snapshot


def _stamp() -> LoadStamp:
    return LoadStamp(when_hours=DEFAULT_EVAL_HOUR)


# ---------------------------------------------------------------------------
# Section 2: motivation
# ---------------------------------------------------------------------------

def fig1_plt_today(count: int = 20) -> Dict[str, List[float]]:
    """PLT CDFs on today's mobile web: top-100 vs News+Sports (HTTP/1.1).

    The paper's live-web loads closely match its HTTP/1.1 replay (Fig 3
    caption), so the replay stands in for the web here.
    """
    top100 = load_matrix(alexa_top100_corpus(count), ["http1"])
    news = load_matrix(news_sports_corpus(count), ["http1"])
    return {
        "top100_http1_plt": top100.series("http1"),
        "news_sports_http1_plt": news.series("http1"),
    }


def fig2_lower_bounds(count: int = 20) -> Dict[str, List[float]]:
    """Network-bottleneck, CPU-bottleneck, max(CPU, network), web loads."""
    run = load_matrix(
        news_sports_corpus(count), ["network-bound", "cpu-bound", "http1"]
    )
    cpu = run.series("cpu-bound")
    net = run.series("network-bound")
    return {
        "network_bound": net,
        "cpu_bound": cpu,
        "max_cpu_network": [max(a, b) for a, b in zip(cpu, net)],
        "loads_from_web": run.series("http1"),
    }


def fig3_http2_estimate(count: int = 20) -> Dict[str, List[float]]:
    """HTTP/2 baseline vs push-all-static vs HTTP/1.1."""
    run = load_matrix(
        news_sports_corpus(count), ["http2", "push-all-static", "http1"]
    )
    return {
        "http2_baseline": run.series("http2"),
        "push_all_static": run.series("push-all-static"),
        "http1": run.series("http1"),
        "loads_from_web": run.series("http1"),
    }


def fig4_critical_path(count: int = 20) -> Dict[str, List[float]]:
    """Fraction of the critical path waiting on the network, HTTP/2 and
    (Sec 6.1's 24%-reduction claim) Vroom."""
    run = load_matrix(news_sports_corpus(count), ["http2", "vroom"])
    return {
        "http2_network_fraction": run.series(
            "http2", "network_wait_fraction"
        ),
        "vroom_network_fraction": run.series(
            "vroom", "network_wait_fraction"
        ),
    }


# ---------------------------------------------------------------------------
# Section 4: design measurements
# ---------------------------------------------------------------------------

def fig7_persistence(count: int = 30) -> Dict[str, List[float]]:
    """Fraction of resources persisting over 1 hour / 1 day / 1 week."""
    return persistence_distributions(alexa_top100_corpus(count), _stamp())


def fig9_device_iou(count: int = 30) -> Dict[str, List[float]]:
    """Stable-set IoU vs a Nexus 6 for a OnePlus 3 and a Nexus 10."""
    return iou_distributions(alexa_top100_corpus(count), _stamp())


def fig11_scheduling_example(page_index: int = 0) -> Dict[str, List[float]]:
    """Receipt-time change (vs HTTP/2) of the first 10 processable
    resources, for Push-All-Fetch-ASAP and Vroom (the eurosport example).
    """
    configs = ["http2", "push-all-fetch-asap", "vroom"]
    (row,) = load_matrix([news_sports_corpus(4)[page_index]], configs).rows

    def receipt_times(config: str) -> List[float]:
        processable = [
            timeline
            for timeline in row[config].referenced_timelines()
            if timeline.resource is not None
            and timeline.resource.processable
            and timeline.fetched_at is not None
        ]
        processable.sort(key=lambda timeline: timeline.fetched_at)
        return [timeline.fetched_at for timeline in processable[:10]]

    baseline = receipt_times("http2")
    asap = receipt_times("push-all-fetch-asap")
    vroom = receipt_times("vroom")
    size = min(len(baseline), len(asap), len(vroom))
    return {
        "push_all_fetch_asap_delta": [
            asap[i] - baseline[i] for i in range(size)
        ],
        "vroom_delta": [vroom[i] - baseline[i] for i in range(size)],
    }


# ---------------------------------------------------------------------------
# Section 6.1: client performance
# ---------------------------------------------------------------------------

def fig13_headline(count: int = 20) -> Dict[str, Dict[str, List[float]]]:
    """PLT / AFT / Speed Index CDFs: lower bound, Vroom, HTTP/2, HTTP/1.1."""
    configs = ["http1", "http2", "vroom", "cpu-bound", "network-bound"]
    run = load_matrix(news_sports_corpus(count), configs)
    collected = {
        metric: {config: run.series(config, metric) for config in configs}
        for metric in ("plt", "aft", "speed_index")
    }
    for metric_map in collected.values():
        cpu = metric_map.pop("cpu-bound")
        net = metric_map.pop("network-bound")
        metric_map["lower_bound"] = [max(a, b) for a, b in zip(cpu, net)]
    return collected


def alexa400_and_partial_adoption(count: int = 20) -> Dict[str, List[float]]:
    """Sec 6.1 text: the lighter corpus, and first-party-only adoption."""
    light = load_matrix(alexa_top400_sample_corpus(count), ["http2", "vroom"])
    partial = load_matrix(news_sports_corpus(count), ["vroom-first-party"])
    return {
        "alexa400_http2": light.series("http2"),
        "alexa400_vroom": light.series("vroom"),
        "news_vroom_first_party_only": partial.series("vroom-first-party"),
    }


def fig14_polaris(count: int = 20) -> Dict[str, List[float]]:
    """Vroom vs Polaris PLT CDFs."""
    run = load_matrix(news_sports_corpus(count), ["vroom", "polaris"])
    return {
        "vroom": run.series("vroom"),
        "polaris": run.series("polaris"),
    }


def fig15_aft_example(page_index: int = 2) -> Dict[str, float]:
    """One heavy page's above-the-fold time, Vroom vs HTTP/2 (Fox News)."""
    (row,) = load_matrix(
        [news_sports_corpus(6)[page_index]], ["vroom", "http2"]
    ).rows
    vroom, http2 = row["vroom"], row["http2"]
    return {
        "vroom_aft": vroom.aft,
        "http2_aft": http2.aft,
        "aft_gap": http2.aft - vroom.aft,
    }


def fig16_discovery_fetch(count: int = 20) -> Dict[str, List[float]]:
    """Relative improvement (vs HTTP/2) in time to discover / finish
    fetching all resources and high-priority resources."""
    out: Dict[str, List[float]] = {
        "discovery_all": [], "discovery_high": [],
        "fetch_all": [], "fetch_high": [],
    }
    run = load_matrix(news_sports_corpus(count), ["http2", "vroom"])
    for row in run.rows:
        base, vroom = row["http2"], row["vroom"]
        for key, func in (
            ("discovery_all", lambda m: m.discovery_complete_at(False)),
            ("discovery_high", lambda m: m.discovery_complete_at(True)),
            ("fetch_all", lambda m: m.fetch_complete_at(False)),
            ("fetch_high", lambda m: m.fetch_complete_at(True)),
        ):
            before, after = func(base), func(vroom)
            if before > 0:
                out[key].append((before - after) / before)
    return out


def fig17_prev_load(count: int = 20) -> Dict[str, tuple]:
    """Quartiles: lower bound, Vroom, deps-from-previous-load, HTTP/2."""
    run = load_matrix(
        news_sports_corpus(count),
        ["http2", "vroom", "deps-prev-load", "cpu-bound", "network-bound"],
    )
    bound = [
        max(a, b)
        for a, b in zip(run.series("cpu-bound"), run.series("network-bound"))
    ]
    return {
        "lower_bound": quartiles(bound),
        "vroom": quartiles(run.series("vroom")),
        "deps_from_previous_load": quartiles(run.series("deps-prev-load")),
        "http2_baseline": quartiles(run.series("http2")),
    }


def fig18_push_only(count: int = 20) -> Dict[str, tuple]:
    """Quartiles: Vroom vs push-without-hints strawmen."""
    run = load_matrix(
        news_sports_corpus(count),
        [
            "vroom",
            "push-high-pri-no-hints",
            "push-all-no-hints",
            "cpu-bound",
            "network-bound",
        ],
    )
    bound = [
        max(a, b)
        for a, b in zip(run.series("cpu-bound"), run.series("network-bound"))
    ]
    return {
        "lower_bound": quartiles(bound),
        "vroom": quartiles(run.series("vroom")),
        "push_high_priority_no_hints": quartiles(
            run.series("push-high-pri-no-hints")
        ),
        "push_all_no_hints": quartiles(run.series("push-all-no-hints")),
    }


def fig19_scheduling(count: int = 20) -> Dict[str, tuple]:
    """Quartiles: Vroom vs Push-All-Fetch-ASAP vs no-push-no-hints,
    plus the scheduling ablations DESIGN.md calls out."""
    run = load_matrix(
        news_sports_corpus(count),
        [
            "vroom",
            "push-all-fetch-asap",
            "no-push-no-hints",
            "vroom-fair",
            "vroom-no-js-delay",
            "cpu-bound",
            "network-bound",
        ],
    )
    bound = [
        max(a, b)
        for a, b in zip(run.series("cpu-bound"), run.series("network-bound"))
    ]
    return {
        "lower_bound": quartiles(bound),
        "vroom": quartiles(run.series("vroom")),
        "push_all_fetch_asap": quartiles(run.series("push-all-fetch-asap")),
        "no_push_no_hints": quartiles(run.series("no-push-no-hints")),
        "ablation_vroom_fair_ordering": quartiles(run.series("vroom-fair")),
        "ablation_vroom_no_js_delay": quartiles(
            run.series("vroom-no-js-delay")
        ),
    }


def fig20_warm_cache(count: int = 16) -> Dict[str, Dict[str, tuple]]:
    """Warm-cache loads: back-to-back, one day later, one week later."""
    scenarios = {"b2b": 0.0, "1day": 24.0, "1week": 24.0 * 7}
    out: Dict[str, Dict[str, tuple]] = {}
    for label, gap_hours in scenarios.items():
        vroom_plts, http2_plts = [], []
        for page in news_sports_corpus(count):
            warm_stamp = LoadStamp(when_hours=DEFAULT_EVAL_HOUR - gap_hours)
            eval_stamp = LoadStamp(
                when_hours=DEFAULT_EVAL_HOUR, nonce=warm_stamp.nonce + 1
            )
            snapshot = page.materialize(eval_stamp)
            store = record_snapshot(snapshot)
            for config, sink in (("vroom", vroom_plts), ("http2", http2_plts)):
                cache = BrowserCache()
                cache.seed_from_snapshot(
                    page.materialize(warm_stamp).all_resources(),
                    when_hours=warm_stamp.when_hours,
                )
                metrics = run_config(
                    config, page, snapshot, store, cache=cache
                )
                sink.append(metrics.plt)
        out[label] = {
            "vroom": quartiles(vroom_plts),
            "http2": quartiles(http2_plts),
            "median_gain": (median(http2_plts) - median(vroom_plts),),
        }
    return out


# ---------------------------------------------------------------------------
# Section 6.2: accuracy of server-side dependency resolution
# ---------------------------------------------------------------------------

def fig21_accuracy(count: int = 40) -> Dict[str, List[float]]:
    """Predictable-subset share plus FP/FN per resolution strategy."""
    stamp = _stamp()
    pages = accuracy_corpus(count)
    out: Dict[str, List[float]] = {
        "predictable_count_share": [],
        "predictable_byte_share": [],
    }
    strategies = {
        "vroom": ResolutionStrategy.VROOM,
        "offline_only": ResolutionStrategy.OFFLINE_ONLY,
        "online_only": ResolutionStrategy.ONLINE_ONLY,
    }
    for name in strategies:
        out[f"{name}_fn"] = []
        out[f"{name}_fp"] = []
    for page in pages:
        count_share, byte_share = predictable_share(page, stamp)
        out["predictable_count_share"].append(count_share)
        out["predictable_byte_share"].append(byte_share)
        for name, strategy in strategies.items():
            result = score_strategy(page, stamp, strategy)
            out[f"{name}_fn"].append(result.fn_rate)
            out[f"{name}_fp"].append(result.fp_rate)
    return out


def flux_calibration(count: int = 20) -> Dict[str, List[float]]:
    """Sec 4.1 text: share of URLs changing across back-to-back loads."""
    stamp = _stamp()
    fluxes = []
    for page in alexa_top100_corpus(count):
        now = set(page.resolve_urls(stamp))
        b2b = set(page.resolve_urls(stamp.back_to_back()))
        fluxes.append(1.0 - len(now & b2b) / len(now))
    return {"back_to_back_flux": fluxes}
