"""Engine micro-benchmark: the reference and fast engines, head to head.

Each scenario loads one page once per engine (``NetworkConfig.engine``) —

* ``reference`` — the plain :class:`~repro.net.simulator.Simulator`:
  every link refresh tick is its own heap event, no batching anywhere.
  This is the oracle.
* ``fast`` — the array-backed
  :class:`~repro.net.simulator.ArraySimulator`: silent refresh ticks run
  inline, homogeneous runs of them go through the link's batch loop, and
  each step visits only the streams that can move, allocating with a
  closed-form water-filling solver.

— and asserts both :class:`LoadMetrics` are bit-identical before
reporting anything.  The report then carries two kinds of numbers:

* **Deterministic counters** (heap events scheduled/executed/cancelled,
  link pokes, fast-forward steps, batch runs, closed-form allocations):
  pure functions of the event trace, stable across machines, pinned as
  CI goldens by ``repro bench engine --smoke``.
* **Wall-clock** (seconds per load, speedups): machine-dependent,
  recorded in ``BENCH_engine.json`` for the trajectory.  CI only asserts
  the deliberately conservative per-scenario *speedup floors* — the fast
  engine must not lose its edge over the reference — never the raw
  seconds.

Scenario shapes:

* ``corpus-news`` — a realistic synthetic News/Sports page under the
  push-all + fetch-asap configuration at LTE latency.  Thresholds
  (completions, preload-scanner watches) and the scanner's 5 ms poll
  dominate, so coalescing is modest by design; this guards the
  realistic-workload counters.
* ``push-all-high-rtt`` — the slow-start-heavy shape from the paper's
  motivation: high RTT, lossy link, server push keeping many streams
  concurrent while windows are still opening.  Refresh ticks dominate
  and coalescing collapses the heap traffic (the >= 2x criterion).
* ``single-stream-drain`` — one long cwnd-limited body drain, the purest
  hot-path microbench: nearly every tick coalesces, so wall-clock
  speedup reflects the inline loop (the >= 1.5x criterion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import audit
from repro.browser.engine import BrowserConfig, load_page
from repro.browser.metrics import LoadMetrics
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.net.http import ENGINES, NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.store import ReplayStore


@dataclass(frozen=True)
class EngineScenario:
    """One benchmarked page/network shape."""

    name: str
    description: str
    #: "corpus" uses a generated News/Sports page; "synthetic" builds a
    #: root document plus ``images`` bodies of ``image_bytes`` each.
    kind: str
    images: int = 0
    image_bytes: int = 0
    #: None keeps the :class:`NetworkConfig` default (LTE).
    base_rtt: Optional[float] = None
    loss_rate: float = 0.0


SCENARIOS: Tuple[EngineScenario, ...] = (
    EngineScenario(
        name="corpus-news",
        description="realistic News/Sports page, push-all + fetch-asap, LTE",
        kind="corpus",
    ),
    EngineScenario(
        name="push-all-high-rtt",
        description="8 large pushed bodies, 500 ms RTT, 3% loss (slow-start-heavy)",
        kind="synthetic",
        images=8,
        image_bytes=900_000,
        base_rtt=0.5,
        loss_rate=0.03,
    ),
    EngineScenario(
        name="single-stream-drain",
        description="one 40 MB body, 200 ms RTT, 3% loss (pure hot-path drain)",
        kind="synthetic",
        images=1,
        image_bytes=40_000_000,
        base_rtt=0.2,
        loss_rate=0.03,
    ),
)

#: Counter keys copied from ``LoadMetrics.engine_counters`` into reports.
COUNTER_KEYS: Tuple[str, ...] = (
    "events_scheduled",
    "events_executed",
    "events_cancelled",
    "heap_compactions",
    "inline_advances",
    "link_pokes",
    "link_fast_forward_steps",
    "link_rate_recomputes",
    "link_batch_runs",
    "link_batch_steps",
    "link_wf_fast_hits",
    "browser_wakeups",
)

#: The engines each scenario runs under; the first is the reference the
#: other must match.
MODES: Tuple[str, ...] = ENGINES


def _scenario_page(scenario: EngineScenario) -> PageBlueprint:
    if scenario.kind == "corpus":
        return news_sports_corpus(count=1)[0]
    page = PageBlueprint(
        name=f"bench_{scenario.name.replace('-', '_')}", root="bench_root"
    )
    root = page.add(
        ResourceSpec(
            name="bench_root",
            rtype=ResourceType.HTML,
            domain="bench.com",
            size=60_000,
            parent=None,
            cacheable=False,
        )
    )
    for index in range(scenario.images):
        page.add(
            ResourceSpec(
                name=f"bench_img{index}",
                rtype=ResourceType.IMAGE,
                domain="bench.com",
                size=scenario.image_bytes,
                parent=root.name,
                position=0.1,
            )
        )
    return page


def _materialize(
    scenario: EngineScenario,
) -> Tuple[PageBlueprint, PageSnapshot, ReplayStore]:
    page = _scenario_page(scenario)
    snapshot = page.materialize(LoadStamp(when_hours=DEFAULT_EVAL_HOUR))
    return page, snapshot, record_snapshot(snapshot)


def _load_once(
    page: PageBlueprint,
    snapshot: PageSnapshot,
    store: ReplayStore,
    scenario: EngineScenario,
    engine: str,
) -> Tuple[LoadMetrics, float]:
    """One push-all + fetch-asap load; returns (metrics, wall seconds)."""
    servers = vroom_servers(
        page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
    )
    net_kwargs: Dict[str, object] = {
        "h2_scheduling": StreamScheduling.FAIR,
        "loss_rate": scenario.loss_rate,
        "engine": engine,
    }
    if scenario.base_rtt is not None:
        net_kwargs["base_rtt"] = scenario.base_rtt
    started = time.perf_counter()
    metrics = load_page(
        snapshot,
        servers,
        NetworkConfig(**net_kwargs),
        BrowserConfig(when_hours=DEFAULT_EVAL_HOUR),
        policy=FetchAsapScheduler(),
    )
    return metrics, time.perf_counter() - started


def bench_scenario(scenario: EngineScenario, repeats: int = 3) -> dict:
    """Benchmark one scenario; raises if any mode ever diverges."""
    page, snapshot, store = _materialize(scenario)
    wall: Dict[str, float] = {}
    metrics: Dict[str, LoadMetrics] = {}
    for mode in MODES:
        best = None
        for _ in range(max(1, repeats)):
            result, elapsed = _load_once(
                page, snapshot, store, scenario, mode
            )
            metrics[mode] = result
            best = elapsed if best is None else min(best, elapsed)
        wall[mode] = best or 0.0
    reference = metrics["reference"]
    if metrics["fast"] != reference:
        raise AssertionError(
            f"scenario {scenario.name!r}: the fast engine diverged from "
            f"the reference (plt {reference.plt!r} vs "
            f"{metrics['fast'].plt!r})"
        )
    counters = {
        mode: {
            key: metrics[mode].engine_counters[key] for key in COUNTER_KEYS
        }
        for mode in MODES
    }
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "plt": reference.plt,
        "bit_identical": True,
        "counters_reference": counters["reference"],
        "counters_fast": counters["fast"],
        "event_reduction": (
            counters["reference"]["events_scheduled"]
            / max(1, counters["fast"]["events_scheduled"])
        ),
        "wall_reference_sec": wall["reference"],
        "wall_fast_sec": wall["fast"],
        "wall_speedup": (
            wall["reference"] / wall["fast"] if wall["fast"] > 0 else 0.0
        ),
    }


def engine_benchmark(
    scenarios: Tuple[EngineScenario, ...] = SCENARIOS, repeats: int = 3
) -> dict:
    """Run every scenario; returns the ``BENCH_engine.json`` payload."""
    return {
        "benchmark": "engine",
        "scenarios": [
            bench_scenario(scenario, repeats=repeats)
            for scenario in scenarios
        ],
    }


#: Golden deterministic counters per scenario, asserted by ``--smoke``.
#: Any hot-path change that alters the event trace shows up here —
#: without the flakiness of asserting wall-clock in CI.  Regenerate by
#: running ``repro bench engine --smoke`` and copying the printed
#: counters after verifying the change is intentional.
SMOKE_GOLDENS: Dict[str, Dict[str, int]] = {
    "corpus-news": {
        "events_scheduled_reference": 1451,
        "events_scheduled_fast": 1446,
        "link_pokes": 368,
        "link_fast_forward_steps": 5,
        "link_batch_runs": 1,
        "link_batch_steps": 2,
        "link_wf_fast_hits": 60,
    },
    "push-all-high-rtt": {
        "events_scheduled_reference": 300,
        "events_scheduled_fast": 93,
        "link_pokes": 229,
        "link_fast_forward_steps": 207,
        "link_batch_runs": 3,
        "link_batch_steps": 204,
        "link_wf_fast_hits": 0,
    },
    "single-stream-drain": {
        "events_scheduled_reference": 1278,
        "events_scheduled_fast": 24,
        "link_pokes": 1263,
        "link_fast_forward_steps": 1254,
        "link_batch_runs": 2,
        "link_batch_steps": 1251,
        "link_wf_fast_hits": 0,
    },
}

#: Minimum acceptable ``wall_speedup`` (fast engine vs reference) per
#: scenario.  Deliberately far below the best-of-3 measurements
#: (1.2–1.5x / 1.4–1.6x / 1.35–1.6x on a 2-CPU container) so
#: shared-runner noise cannot trip CI, while a real regression — the fast
#: engine losing its edge on the tick-dominated shapes, or turning
#: meaningfully slower than the reference on the realistic page — still
#: fails the smoke job.
SPEEDUP_FLOORS: Dict[str, float] = {
    "corpus-news": 0.90,
    "push-all-high-rtt": 1.05,
    "single-stream-drain": 1.10,
}


def smoke_counters(report: dict) -> Dict[str, Dict[str, int]]:
    """The golden-comparable slice of an :func:`engine_benchmark` report."""
    observed: Dict[str, Dict[str, int]] = {}
    for row in report["scenarios"]:
        fast = row["counters_fast"]
        observed[row["scenario"]] = {
            "events_scheduled_reference": row["counters_reference"][
                "events_scheduled"
            ],
            "events_scheduled_fast": fast["events_scheduled"],
            "link_pokes": fast["link_pokes"],
            "link_fast_forward_steps": fast["link_fast_forward_steps"],
            "link_batch_runs": fast["link_batch_runs"],
            "link_batch_steps": fast["link_batch_steps"],
            "link_wf_fast_hits": fast["link_wf_fast_hits"],
        }
    return observed


def profile_scenario(
    stats_path: str,
    scenario_name: str = "corpus-news",
    loads: int = 5,
    top: int = 25,
    mode: str = "fast",
) -> str:
    """cProfile ``loads`` loads of one scenario under one engine.

    ``mode`` is any :data:`MODES` name (``reference`` or ``fast``); the
    default profiles the production engine.  Dumps the raw ``pstats``
    data to ``stats_path`` (for ``snakeviz`` / ``pstats`` digging
    offline) and returns the top-``top`` cumulative table as text —
    the CI engine-bench job archives both, so every run carries the
    evidence of where the hot path's time actually went.
    """
    import cProfile
    import io
    import pstats

    scenario = next(
        item for item in SCENARIOS if item.name == scenario_name
    )
    if mode not in MODES:
        names = ", ".join(MODES)
        raise ValueError(f"unknown engine mode {mode!r} (one of: {names})")
    page, snapshot, store = _materialize(scenario)

    def run() -> None:
        for _ in range(loads):
            _load_once(page, snapshot, store, scenario, mode)

    run()  # warm caches so the profile reflects steady state
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    profiler.dump_stats(stats_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def smoke_run() -> dict:
    """Best-of-three benchmark over every scenario (for CI).

    Counters are exact on any repeat count; three wall repeats keep the
    speedup-floor check out of single-sample noise.
    """
    return engine_benchmark(repeats=3)


#: Counters that measure which *implementation* ran, not the trace.
#: Under ``REPRO_AUDIT=1`` the batch loop stands down (the generic loop
#: validates every step individually, so runs/steps read zero) and the
#: closed-form solver is hit a different number of times.  These are not
#: comparable to the goldens there — but every trace-shaped counter
#: (events, pokes, fast-forward steps) must still match exactly, and
#: that is what the audited smoke run asserts.
_IMPLEMENTATION_COUNTERS = (
    "link_batch_runs",
    "link_batch_steps",
    "link_wf_fast_hits",
)


def smoke_check(report: dict) -> List[str]:
    """Mismatches between a benchmark report and the pinned goldens."""
    problems: List[str] = []
    observed = smoke_counters(report)
    audited = audit.ENABLED
    speedups = {
        row["scenario"]: row["wall_speedup"] for row in report["scenarios"]
    }
    for scenario, golden in SMOKE_GOLDENS.items():
        actual = observed.get(scenario)
        if actual is None:
            problems.append(f"{scenario}: missing from report")
            continue
        for field, expected in golden.items():
            if audited and field in _IMPLEMENTATION_COUNTERS:
                continue
            if actual.get(field) != expected:
                problems.append(
                    f"{scenario}.{field}: expected {expected!r}, "
                    f"got {actual.get(field)!r}"
                )
        if audited:
            # Audited walls time per-step validation, not the fast
            # engine; no floor applies.
            continue
        floor = SPEEDUP_FLOORS.get(scenario)
        speedup = speedups.get(scenario)
        if floor is not None and speedup is not None and speedup < floor:
            problems.append(
                f"{scenario}.wall_speedup: {speedup:.2f}x fell below the "
                f"{floor:.2f}x floor — the fast engine lost its wall-clock "
                "edge over the reference"
            )
    return problems
