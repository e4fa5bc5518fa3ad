"""Seeded inputs and the one operation each workload repeats.

Every generator here is a pure function of its seed: the same seed gives
the same pages, snapshots and scenario specs, and the program under test
receives only those generated inputs.

* ``page-loads`` — seeded ``news_sports_corpus`` pages, each loaded by
  ``run_config`` under the Fig 13 configurations on the default LTE link.
* ``bulk-transfer-loads`` — seeded media-heavy pages (a root document
  plus a few multi-MB bodies on a few domains) loaded by ``load_page``
  on the satellite and bursty-loss profiles, plain HTTP/2 and push-all
  with the fetch-on-sight client.
* ``hint-fleet`` / ``hint-churn`` — a :class:`LongRunner` over a
  seeded :class:`ScenarioSpec`: the read-heavy fleet shape of the
  long-run acceptance scenario, and a write-heavy variant of it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.browser.engine as engine_module
import repro.core.server as server_module
import repro.replay.recorder as recorder_module
from repro.baselines import run_config
from repro.browser import BrowserConfig, LoadMetrics
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.net.profiles import PROFILES
from repro.pages import (
    LoadStamp,
    PageBlueprint,
    PageSnapshot,
    ResourceSpec,
    ResourceType,
    news_sports_corpus,
)
from repro.replay import ReplayStore, build_servers
from repro.scenario import ScenarioSpec

#: The seed whose outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 1

LOAD_WORKLOADS = ("page-loads", "bulk-transfer-loads")
HINT_WORKLOADS = ("hint-fleet", "hint-churn")
WORKLOADS = LOAD_WORKLOADS + HINT_WORKLOADS

#: Fig 13's comparison: the HTTP/2 baseline, Vroom, and push-all with
#: full hints and a fetch-on-sight client.
PAGE_LOAD_CONFIGS = ("http2", "vroom", "push-all-fetch-asap")
PAGE_LOAD_PAGES = 144

BULK_PROFILES = ("satellite", "bursty-loss")
BULK_MODES = ("http2", "push-all")
BULK_PAGES = 512

#: Simulated hours of one scenario run.  ``hint-churn`` runs half again as
#: long: its latency tail is the few periods whose scheduler tick does a
#: burst of writes, so a run needs more periods to place its 90th
#: percentile steadily.
HINT_HORIZON_HOURS = {"hint-fleet": 8.0, "hint-churn": 12.0}

#: (page index, configuration or mode, network profile or None).
Job = Tuple[int, str, Optional[str]]


@dataclass
class LoadInputs:
    """Pages, their recorded snapshots, and the job list of one pass."""

    workload: str
    seed: int
    pages: List[PageBlueprint]
    snapshots: List[PageSnapshot]
    stores: List[ReplayStore]
    jobs: List[Job]


def _bulk_page(rng: random.Random, name: str) -> PageBlueprint:
    """A root document plus three multi-MB bodies on one to three domains."""
    page = PageBlueprint(name=name, root="root")
    origin = f"{name}.example"
    domains = [origin] + [
        f"media{index}.{origin}" for index in range(rng.randint(0, 2))
    ]
    page.add(
        ResourceSpec(
            name="root",
            rtype=ResourceType.HTML,
            domain=origin,
            size=rng.randint(40_000, 80_000),
            cacheable=False,
        )
    )
    for index in range(3):
        page.add(
            ResourceSpec(
                name=f"body{index}",
                rtype=rng.choice((ResourceType.IMAGE, ResourceType.VIDEO)),
                domain=rng.choice(domains),
                size=rng.randint(6_000_000, 10_000_000),
                parent="root",
                position=rng.uniform(0.05, 0.95),
            )
        )
    return page


def load_pages(
    workload: str, seed: int, pages: Optional[int] = None
) -> List[PageBlueprint]:
    """The page blueprints of a load workload (``pages`` shrinks a smoke pass)."""
    if workload == "page-loads":
        return news_sports_corpus(count=pages or PAGE_LOAD_PAGES, seed=seed)
    if workload == "bulk-transfer-loads":
        rng = random.Random(seed)
        return [
            _bulk_page(rng, f"bulk{seed}x{index}")
            for index in range(pages or BULK_PAGES)
        ]
    raise ValueError(f"not a load workload: {workload!r}")


def build_load_inputs(
    workload: str, seed: int, pages: Optional[int] = None
) -> LoadInputs:
    """Generate pages, then ``materialize`` and ``record_snapshot`` each."""
    blueprints = load_pages(workload, seed, pages)
    stamp = LoadStamp(when_hours=DEFAULT_EVAL_HOUR)
    snapshots = [page.materialize(stamp) for page in blueprints]
    stores = [recorder_module.record_snapshot(snap) for snap in snapshots]
    if workload == "page-loads":
        jobs: List[Job] = [
            (index, config, None)
            for index in range(len(blueprints))
            for config in PAGE_LOAD_CONFIGS
        ]
    else:
        jobs = [
            (index, mode, profile)
            for index in range(len(blueprints))
            for profile in BULK_PROFILES
            for mode in BULK_MODES
        ]
    return LoadInputs(workload, seed, blueprints, snapshots, stores, jobs)


def run_load(inputs: LoadInputs, job: Job) -> LoadMetrics:
    """One page load: the closed-loop operation of the load workloads."""
    index, mode, profile = job
    page = inputs.pages[index]
    snapshot = inputs.snapshots[index]
    store = inputs.stores[index]
    if profile is None:
        return run_config(mode, page, snapshot, store)
    net = PROFILES[profile].config()
    browser = BrowserConfig(when_hours=snapshot.stamp.when_hours)
    if mode == "http2":
        return engine_module.load_page(
            snapshot, build_servers(store), net, browser
        )
    servers = server_module.vroom_servers(
        page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
    )
    return engine_module.load_page(
        snapshot, servers, net, browser, policy=FetchAsapScheduler()
    )


def load_record(metrics: LoadMetrics) -> str:
    """The pinned output of one load: ``(plt, aft, speed_index, wasted_bytes)``."""
    return (
        f"{metrics.plt!r}|{metrics.aft!r}|{metrics.speed_index!r}|"
        f"{metrics.wasted_bytes!r}"
    )


def record_digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def pass_digest(records: List[str]) -> str:
    """sha256 over one pass's load records in job order."""
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def hint_spec(
    workload: str, seed: int, horizon_hours: Optional[float] = None
) -> ScenarioSpec:
    """The scenario of a hint workload; the seed drives arrivals and faults.

    ``hint-fleet`` is the long-run acceptance shape (12 pages, 1,500
    lookups/h, replication 2, a shard failing for 1.5 h every 12 h,
    8-bit digest filter).  ``hint-churn`` keeps the runner and fault
    cycle but turns the filter off and serves a larger page fleet from
    tight shards with a short TTL and a high crawl budget, so offline
    resolutions, inserts and evictions dominate.
    """
    shape = dict(
        horizon_hours=horizon_hours or HINT_HORIZON_HOURS[workload],
        rate_per_hour=1500.0,
        replication=2,
        shard_cycle_every_hours=12.0,
        shard_cycle_down_hours=1.5,
        shard_cycle_start_hours=6.0,
        workload_seed=seed,
        fault_seed=seed,
    )
    if workload == "hint-fleet":
        return ScenarioSpec(pages=12, digest_filter_bits=8, **shape)
    if workload == "hint-churn":
        return ScenarioSpec(
            pages=48,
            digest_filter_bits=0,
            shard_memory_bytes=96 * 1024,
            ttl_hours=1.0,
            freshness_hours=0.5,
            crawl_budget_per_hour=3000.0,
            **shape,
        )
    raise ValueError(f"not a hint workload: {workload!r}")


def hint_record(report: dict) -> str:
    """The pinned output of one run: report fingerprint plus hint chain."""
    return f"{report['fingerprint']}|{report['chain']}"
