"""Reproduction of "Vroom: Accelerating the Mobile Web with Server-Aided
Dependency Resolution" (SIGCOMM 2017).

Quick tour of the public API::

    from repro import (
        news_sports_corpus, LoadStamp, record_snapshot, run_config,
    )

    page = news_sports_corpus(count=1)[0]
    snapshot = page.materialize(LoadStamp(when_hours=1000.0))
    store = record_snapshot(snapshot)
    baseline = run_config("http2", page, snapshot, store)
    vroom = run_config("vroom", page, snapshot, store)
    print(baseline.plt, "->", vroom.plt)

Packages:

* :mod:`repro.pages` — synthetic page substrate (blueprints, snapshots,
  markup, temporal dynamics, corpora).
* :mod:`repro.net` — discrete-event network substrate (shared LTE link
  with congestion windows, HTTP/1.1 and HTTP/2 with PUSH).
* :mod:`repro.browser` — browser model (incremental parsing, blocking
  semantics, preload scanner, CPU, cache, metrics).
* :mod:`repro.replay` — Mahimahi-style record-and-replay harness.
* :mod:`repro.core` — Vroom itself: offline+online dependency resolution,
  dependency hints, push policy, staged client scheduler.
* :mod:`repro.baselines` — HTTP baselines, push strawmen, Polaris, lower
  bounds, and the named-configuration runner.
* :mod:`repro.analysis` — CDFs, accuracy (FP/FN), persistence, device IoU.
* :mod:`repro.service` — simulated multi-tenant hint-serving backend
  (sharded dependency store, batched offline-resolution scheduler,
  Zipf/Poisson workload, end-to-end accuracy bridge).
* :mod:`repro.experiments` — one regeneration function per paper figure,
  plus the parallel sweep engine (``sweep_configs``/``run_sweep``).
"""

from repro.baselines import run_config, CONFIG_NAMES
from repro.browser import BrowserConfig, LoadMetrics, load_page
from repro.core import VroomResolver, VroomScheduler, vroom_servers
from repro.experiments import ExperimentRun, run_sweep, sweep_configs
from repro.net import HttpVersion, NetworkConfig
from repro.pages import (
    LoadStamp,
    PageBlueprint,
    PageSnapshot,
    accuracy_corpus,
    alexa_top100_corpus,
    alexa_top400_sample_corpus,
    generate_page,
    news_sports_corpus,
)
from repro.replay import build_servers, record_snapshot
from repro.replay.cache import SnapshotCache, materialize_cached
from repro.service import (
    FleetStore,
    HintService,
    PlacementMap,
    ServiceConfig,
    ServiceReport,
    evaluate_samples,
)

__version__ = "1.0.0"

__all__ = [
    "run_config",
    "CONFIG_NAMES",
    "BrowserConfig",
    "LoadMetrics",
    "load_page",
    "VroomResolver",
    "VroomScheduler",
    "vroom_servers",
    "HttpVersion",
    "NetworkConfig",
    "LoadStamp",
    "PageBlueprint",
    "PageSnapshot",
    "accuracy_corpus",
    "alexa_top100_corpus",
    "alexa_top400_sample_corpus",
    "generate_page",
    "news_sports_corpus",
    "build_servers",
    "record_snapshot",
    "SnapshotCache",
    "materialize_cached",
    "FleetStore",
    "PlacementMap",
    "HintService",
    "ServiceConfig",
    "ServiceReport",
    "evaluate_samples",
    "ExperimentRun",
    "run_sweep",
    "sweep_configs",
    "__version__",
]
