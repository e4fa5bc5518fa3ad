"""Extension experiments beyond the paper's figures.

These probe what the paper flags but does not evaluate:

* incremental adoption (Sec 6.1 only tests first-party-only),
* the Vroom+Polaris hybrid (Sec 6.1's "promising direction"),
* alternate network regimes (Sec 4.3's caveat that the scheduler is
  tailored to CPU-bound LTE loads),
* page-type clustering economics for offline resolution (Sec 7).
"""

from benchmarks.conftest import run_once
from repro.analysis.stats import median, percentile
from repro.experiments import extensions
from repro.experiments.report import print_figure


def test_ext_adoption_sweep(benchmark):
    series = run_once(benchmark, extensions.adoption_sweep, count=10)
    print_figure("Extension: incremental adoption sweep (median PLT)", series)
    # More adoption never hurts much, and full adoption beats none.
    assert median(series["adopt_100"]) < median(series["adopt_000"])
    assert median(series["adopt_050"]) <= median(series["adopt_000"]) + 0.3


def test_ext_hybrid(benchmark):
    series = run_once(benchmark, extensions.hybrid_comparison, count=16)
    print_figure("Extension: Vroom + Polaris hybrid", series)
    assert median(series["hybrid"]) <= median(series["vroom"]) * 1.05
    assert median(series["hybrid"]) < median(series["polaris"])
    # The hybrid's value shows in the tail (unpredictable-heavy pages).
    assert percentile(series["hybrid"], 0.9) <= (
        percentile(series["vroom"], 0.9) * 1.05
    )


def test_ext_network_regimes(benchmark):
    result = run_once(benchmark, extensions.network_regimes, count=6)
    print("== Extension: Vroom gain by network regime ==")
    gains = {}
    for name, rows in result.items():
        gain = median(rows["http2"]) - median(rows["vroom"])
        gains[name] = gain
        print(
            f"{name:<11} http2={median(rows['http2']):7.2f}s "
            f"vroom={median(rows['vroom']):7.2f}s gain={gain:+6.2f}s"
        )
    # The design point (LTE) gains clearly.
    assert gains["lte"] > 0.5
    # Sec 4.3's caveat: when bandwidth is the bottleneck (2G), the staged
    # prefetching stops paying off.
    assert gains["2g"] < gains["lte"]


def test_ext_atf_first(benchmark):
    """Extension: order above-the-fold media first within x-unimportant.

    A pure hint-ordering change (no protocol or client change) that
    claws back part of the Speed Index cost of staged prefetching
    without touching PLT."""
    from repro.experiments.parallel import load_matrix
    from repro.pages.corpus import news_sports_corpus

    def sweep(count=10):
        configs = ["vroom", "vroom-atf-first"]
        run = load_matrix(news_sports_corpus(count), configs)
        return {
            config: list(
                zip(run.series(config), run.series(config, "speed_index"))
            )
            for config in configs
        }

    rows = run_once(benchmark, sweep, count=10)
    for config, values in rows.items():
        print(
            f"{config:<16} plt={median([v[0] for v in values]):5.2f}s "
            f"si={median([v[1] for v in values]):6.0f}"
        )
    plain_si = median([v[1] for v in rows["vroom"]])
    atf_si = median([v[1] for v in rows["vroom-atf-first"]])
    assert atf_si <= plain_si * 1.02
    plain_plt = median([v[0] for v in rows["vroom"]])
    atf_plt = median([v[0] for v in rows["vroom-atf-first"]])
    assert abs(atf_plt - plain_plt) < plain_plt * 0.05


def test_ext_clustering(benchmark):
    result = run_once(benchmark, extensions.clustering_economics, count=30)
    print(
        "== Extension: page-type clustering (Sec 7) ==\n"
        f"pages={result['pages']:.0f} clusters={result['clusters']:.0f} "
        f"hourly-load reduction={result['hourly_load_reduction']:.0%} "
        f"median stable coverage={result['median_stable_coverage']:.0%}"
    )
    assert result["hourly_load_reduction"] > 0.2
    assert result["median_stable_coverage"] > 0.3
