"""Device sweep: CPU headroom determines what Vroom can unlock.

Sec 2 observes that the client CPU is the bottleneck and that adding
cores would not help (loads are renderer-serial).  Here we sweep the
three device models the paper uses: a faster phone (OnePlus 3) lowers
every configuration's floor, a slower tablet (Nexus 10) raises it, and
Vroom's *relative* gain persists across all of them — the mechanism is
about feeding the CPU, whatever its speed.
"""

from benchmarks.conftest import run_once
from repro.analysis.stats import median
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.experiments.parallel import load_matrix
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp

DEVICES = ("oneplus3", "nexus6", "nexus10")


def device_sweep(count: int = 10):
    pages = news_sports_corpus(count)
    out = {}
    for device in DEVICES:
        run = load_matrix(
            pages,
            ["http2", "vroom"],
            stamp=LoadStamp(when_hours=DEFAULT_EVAL_HOUR, device=device),
            device=device,
        )
        out[device] = {
            config: run.series(config) for config in ("http2", "vroom")
        }
    return out


def test_device_sweep(benchmark):
    result = run_once(benchmark, device_sweep, count=10)
    print("== Device sweep: median PLT ==")
    for device in DEVICES:
        h2 = median(result[device]["http2"])
        vroom = median(result[device]["vroom"])
        print(
            f"{device:<10} http2={h2:6.2f}s vroom={vroom:6.2f}s "
            f"gain={h2 - vroom:+5.2f}s ({(h2 - vroom) / h2:.0%})"
        )
    # Faster CPU -> faster loads, for both configs.
    assert median(result["oneplus3"]["vroom"]) < median(
        result["nexus10"]["vroom"]
    )
    # Vroom helps on every device.
    for device in DEVICES:
        assert median(result[device]["vroom"]) < median(
            result[device]["http2"]
        ), device
