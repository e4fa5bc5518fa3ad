"""Shopping-site churn (Sec 4.1's motivating example for online analysis).

"The set of stories or set of products on the landing page of a News or
Shopping site changes often" — product rotations on hour scales are the
content that hour-old offline data misses.  On a dedicated shopping
corpus the offline-only strawman's false negatives blow up while Vroom's
online analysis holds, and Vroom's PLT gain survives the churn.
"""

from benchmarks.conftest import run_once
from repro.analysis.stats import median
from repro.analysis.accuracy import score_strategy
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.resolver import ResolutionStrategy
from repro.experiments.parallel import load_matrix
from repro.pages.corpus import shopping_corpus
from repro.pages.dynamics import LoadStamp


def shopping_study(count: int = 12):
    stamp = LoadStamp(when_hours=DEFAULT_EVAL_HOUR)
    pages = shopping_corpus(count)
    run = load_matrix(pages, ["http2", "vroom"], stamp=stamp)
    return {
        "offline_fn": [
            score_strategy(
                page, stamp, ResolutionStrategy.OFFLINE_ONLY
            ).fn_rate
            for page in pages
        ],
        "vroom_fn": [
            score_strategy(page, stamp, ResolutionStrategy.VROOM).fn_rate
            for page in pages
        ],
        "http2_plt": run.series("http2"),
        "vroom_plt": run.series("vroom"),
    }


def test_shopping_flux(benchmark):
    result = run_once(benchmark, shopping_study, count=12)
    print(
        "== Shopping corpus (hour-scale product rotation) ==\n"
        f"offline-only FN median {median(result['offline_fn']):.2f}  "
        f"vroom FN median {median(result['vroom_fn']):.2f}\n"
        f"http2 PLT median {median(result['http2_plt']):.2f}s  "
        f"vroom PLT median {median(result['vroom_plt']):.2f}s"
    )
    assert median(result["offline_fn"]) > 0.10
    assert median(result["vroom_fn"]) < median(result["offline_fn"]) / 2
    assert median(result["vroom_plt"]) < median(result["http2_plt"])
